import argparse
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhomog import cli, errors, jsonio, n_space
from nhomog.cli import _config, build_parser, main
from nhomog.jsonio import (
    decode_fn_algebra_input,
    decode_int,
    decode_matrix,
    decode_tuple,
    dump_report,
    encode_matrix,
    load_json,
)
from nhomog.errors import ParseError, SchemaError

from conftest import HADAMARD, SX, SZ, assert_close


def mat(m):
    return encode_matrix(np.asarray(m, dtype=complex))


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def pauli_file(tmp_path):
    return write(tmp_path, "pauli.json", {"generators": [mat(SX), mat(SZ)]})


class TestJsonCodec:
    def test_matrix_roundtrip(self):
        m = np.array([[1 + 2j, 0], [3, -1j]], dtype=complex)
        assert_close(decode_matrix(encode_matrix(m), "m"), m)

    def test_ragged_rejected(self):
        with pytest.raises(SchemaError, match="ragged"):
            decode_matrix([[[0, 0], [1, 0]], [[1, 0]]], "m")

    def test_nan_rejected(self):
        with pytest.raises(SchemaError, match="non-finite"):
            decode_matrix([[[float("nan"), 0.0]]], "m")

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"generators": [')
        with pytest.raises(ParseError, match="line"):
            load_json(path)

    def test_dump_is_canonical(self):
        assert dump_report({"b": 1, "a": [2.5]}) == '{"a":[2.5],"b":1}'


class TestAnalyze:
    def test_true_verdict_exit_zero(self, pauli_file, capsys):
        assert main(["analyze", "--in", pauli_file, "--n", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["is_n_homogeneous"] is True
        assert report["tolerance"]["eq_tol"] == 1e-8
        assert "seed" in report

    def test_false_verdict_exit_one(self, tmp_path, capsys):
        d1 = np.diag([1.0, -1.0, 1.0]).astype(complex)
        d2 = np.zeros((3, 3), dtype=complex)
        d1[2, 2] = 1.0
        gens = [
            np.block([[SX, np.zeros((2, 1))], [np.zeros((1, 2)), np.eye(1)]]),
            np.block([[SZ, np.zeros((2, 1))], [np.zeros((1, 2)), np.eye(1)]]),
        ]
        path = write(tmp_path, "mixed.json", {"generators": [mat(g) for g in gens]})
        assert main(["analyze", "--in", path, "--n", "2"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["is_n_homogeneous"] is False
        assert "dim 1" in report["reason"]

    def test_missing_file_exit_two(self, capsys):
        assert main(["analyze", "--in", "/no/such/file.json", "--n", "2"]) == 2
        assert "input error" in capsys.readouterr().err

    def test_ragged_input_exit_two(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {"generators": [[[[0, 0], [1, 0]], [[1, 0]]]]})
        assert main(["analyze", "--in", path, "--n", "2"]) == 2

    def test_nan_input_exit_two(self, tmp_path):
        path = write(
            tmp_path, "nan.json", {"generators": [[[[float("nan"), 0.0], [0, 0]], [[0, 0], [0, 0]]]]}
        )
        assert main(["analyze", "--in", path, "--n", "2"]) == 2

    def test_byte_identical_reports(self, pauli_file, capsys):
        main(["analyze", "--in", pauli_file, "--n", "2", "--seed", "5"])
        first = capsys.readouterr().out
        main(["analyze", "--in", pauli_file, "--n", "2", "--seed", "5"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("tol", ["0.5", "-1"])
    def test_out_of_range_tol_exit_two(self, pauli_file, tol, capsys):
        assert main(["analyze", "--in", pauli_file, "--n", "2", "--tol", tol]) == 2
        err = capsys.readouterr().err
        assert err.startswith("nhomog: input error: --tol") and err.count("\n") == 1

    def test_failed_split_exit_three(self, tmp_path, capsys, monkeypatch):
        # a splitter that separates nothing fails every redraw
        monkeypatch.setattr("nhomog.decomposition._random_hermitian", lambda letters, rng: np.zeros((4, 4)))
        gens = [np.kron(np.eye(2), SX), np.kron(np.diag([1.0, 2.0]), SZ)]
        path = write(tmp_path, "two.json", {"generators": [mat(g) for g in gens]})
        assert main(["analyze", "--in", path, "--n", "2"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_env_seed_default(self, pauli_file, capsys, monkeypatch):
        monkeypatch.setenv("NHOMOG_SEED", "77")
        main(["analyze", "--in", pauli_file, "--n", "2"])
        assert json.loads(capsys.readouterr().out)["seed"] == 77

    def test_out_file_and_human(self, pauli_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["analyze", "--in", pauli_file, "--n", "2", "--out", str(out)]) == 0
        report = json.loads(out.read_text().splitlines()[0])
        assert report["is_n_homogeneous"] is True
        main(["analyze", "--in", pauli_file, "--n", "2", "--human"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("{") and any(l.startswith("#") for l in lines[1:])


INPUT_FAULTS = ["ParseError", "SchemaError", "ArityMismatch", "DimensionMismatch", "DomainError",
                "IndexOutOfRange", "NotHermitian", "NotSquare", "NotAStarHom", "SamePoint",
                "SpaceMismatch", "TableMismatch", "PreconditionFailed",
                "MCBudgetTooSmall"]
OTHER_FAULTS = ["NumericalFailure", "HypothesisViolated", "NotIrreducible", "NotNHomogeneous"]


class TestInputErrorClass:
    @pytest.mark.parametrize("name", INPUT_FAULTS)
    def test_input_faults_exit_two(self, name, pauli_file, capsys, monkeypatch):
        fault = getattr(errors, name)
        assert issubclass(fault, errors.InputError)

        def run(cfg):
            raise fault("bad input")

        monkeypatch.setattr(cli, "run", run)
        assert main(["analyze", "--in", pauli_file, "--n", "2"]) == 2
        assert capsys.readouterr().err == "nhomog: input error: bad input\n"

    @pytest.mark.parametrize("name", OTHER_FAULTS)
    def test_other_faults_are_not_input_errors(self, name, pauli_file, monkeypatch):
        fault = getattr(errors, name)
        assert issubclass(fault, errors.NHomogError) and not issubclass(fault, errors.InputError)

        def run(cfg):
            raise fault("not the input")

        monkeypatch.setattr(cli, "run", run)
        assert main(["analyze", "--in", pauli_file, "--n", "2"]) == 3


class TestSpectrum:
    def test_pauli_spectrum(self, pauli_file, capsys):
        assert main(["spectrum", "--in", pauli_file, "--n", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["points"]) == 1
        assert report["points"][0]["multiplicity"] == 1
        assert report["zero_in_closure"] is False

    def test_inhomogeneous_exit_one(self, tmp_path, capsys):
        path = write(tmp_path, "diag.json", {"generators": [mat(np.diag([1.0, 2.0]))]})
        assert main(["spectrum", "--in", path, "--n", "2"]) == 1


class TestCalc:
    def test_coordinate_polynomial(self, pauli_file, tmp_path, capsys):
        path = write(
            tmp_path, "calc.json", {"tuple": {"generators": [mat(SX), mat(SZ)]}, "polynomial": "z1"}
        )
        assert main(["calc", "--in", path, "--n", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert_close(decode_matrix(report["result"], "r"), SX)

    def test_orbit_table(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "table.json",
            {"tuple": {"generators": [mat(SX), mat(SZ)]}, "table": {"values": [mat(np.eye(2))]}},
        )
        assert main(["calc", "--in", path, "--n", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert_close(decode_matrix(report["result"], "r"), np.eye(2), atol=1e-9)

    def test_human_line_only_with_human(self, tmp_path, capsys, monkeypatch):
        """The result norm is taken only for the --human summary."""
        path = write(tmp_path, "calc.json", {"tuple": {"generators": [mat(SX), mat(SZ)]}, "polynomial": "2*z1"})
        monkeypatch.setattr(cli, "opnorm", lambda a: pytest.fail("norm taken without --human"))
        assert main(["calc", "--in", path, "--n", "2"]) == 0
        plain = capsys.readouterr().out
        monkeypatch.setattr(cli, "opnorm", lambda a: 2.0)
        assert main(["calc", "--in", path, "--n", "2", "--human"]) == 0
        assert capsys.readouterr().out == plain.rstrip("\n") + "\n# result norm 2\n"

    def test_bad_polynomial_exit_two(self, tmp_path):
        path = write(
            tmp_path, "badp.json", {"tuple": {"generators": [mat(SX)]}, "polynomial": "z9"}
        )
        assert main(["calc", "--in", path]) == 2

    @pytest.mark.parametrize("scale", [1e100, 1e110, 1e160, 1e200])
    def test_overflow_exits_three_with_one_line(self, tmp_path, capsys, scale):
        """z1 z2 z1 of a random pair scaled by 1e110 or more overflows; the
        run ends in exit 3 with one line, not a traceback or NaN output."""
        r = np.random.default_rng(0)
        gens = [scale * (r.standard_normal((2, 2)) + 1j * r.standard_normal((2, 2))) for _ in range(2)]
        path = write(tmp_path, "big.json", {"tuple": {"generators": [mat(g) for g in gens]},
                                            "polynomial": "z1*z2*z1"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["calc", "--in", path, "--n", "2"])
        out, err = capsys.readouterr()
        if scale == 1e100:
            assert code == 0 and err == ""
            result = decode_matrix(json.loads(out)["result"], "r")
            assert_close(result / 1e300, gens[0] @ gens[1] @ gens[0] / 1e300, atol=1e-8)
        else:
            assert code == 3 and out == ""
            assert err.splitlines() == ["nhomog: numerical failure: calculus value is not finite (overflow)"]


class TestSwCheck:
    def test_dense_single_point(self, tmp_path, capsys):
        payload = {"points": 1, "n": 2, "generators": [[mat(SX)], [mat(SZ)]]}
        path = write(tmp_path, "sw.json", payload)
        assert main(["sw-check", "--in", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dense"] is True and report["span_equals_delta2"] is True

    def test_matched_pair_not_dense_exit_one(self, tmp_path, capsys):
        payload = {
            "points": 2,
            "n": 2,
            "generators": [[mat(SX), mat(SX)], [mat(SZ), mat(SZ)], [mat(np.eye(2)), mat(np.eye(2))]],
        }
        path = write(tmp_path, "sw2.json", payload)
        assert main(["sw-check", "--in", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["dense"] is False
        assert report["delta2_dim"] == report["algebra_dim"] == 4

    def test_tolerance_below_roundoff_exits_three(self, tmp_path):
        """--tol 1e-17 puts the rank cut below the roundoff of the closure's
        products, which once grew the span without end.  It runs in a
        subprocess with a timeout, so a hang fails the test."""
        r = np.random.default_rng(0)
        values = [r.standard_normal((2, 2)) + 1j * r.standard_normal((2, 2)) for _ in range(2)]
        path = write(tmp_path, "sw.json", {"points": 2, "n": 2, "generators": [[mat(v) for v in values]]})
        code = "import sys; from nhomog.cli import main; sys.exit(main(sys.argv[1:]))"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-c", code, "sw-check", "--in", path, "--tol", "1e-17"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 3 and done.stdout == ""
        assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("nhomog: numerical failure:")


N_OPTION = {"analyze": ["--n", "2"], "calc": ["--n", "2"]}


def integer_field_payloads(value):
    """One payload per integer field of the CLI inputs, with ``value`` in
    that field and every other field valid."""
    zero = np.zeros((2, 2))
    pair = {"generators": [mat(SX), mat(SZ)]}
    return {
        "sw-check points": ("sw-check", {"points": value, "n": 2, "generators": [[mat(SX)]]}),
        "sw-check n": ("sw-check", {"points": 1, "n": value, "generators": [[mat(SX)]]}),
        "analyze d": ("analyze", dict(pair, d=value)),
        "analyze k": ("analyze", dict(pair, k=value)),
        "calc tuple.d": ("calc", {"tuple": dict(pair, d=value), "polynomial": "z1"}),
        "haar n": ("haar", {"n": value, "matrix": mat(np.eye(2))}),
        "nspace n": ("nspace", {"space": {"n": value, "orbits": 1},
                                "generators": [{"values": [mat(zero)]}]}),
        "nspace orbits": ("nspace", {"space": {"n": 2, "orbits": value},
                                     "generators": [{"values": [mat(zero)]}]}),
    }


class TestIntegerFields:
    """Count and size fields take JSON integers only; anything else is an
    input error (exit 2, one stderr line), never a traceback or a
    truncated value."""

    @pytest.mark.parametrize("value", ["x", None, True, False, 2.7, 1.5, 2.0, [2], {"n": 2}])
    @pytest.mark.parametrize("site", list(integer_field_payloads(0)))
    def test_malformed_value_exit_two(self, tmp_path, capsys, site, value):
        command, payload = integer_field_payloads(value)[site]
        path = write(tmp_path, "int.json", payload)
        assert main([command, "--in", path, *N_OPTION.get(command, [])]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("nhomog: input error:") and "must be an integer" in err[0]

    @pytest.mark.parametrize("site", ["sw-check points", "analyze d", "analyze k", "haar n"])
    def test_well_formed_value_accepted(self, tmp_path, capsys, site):
        command, payload = integer_field_payloads(2 if site != "sw-check points" else 1)[site]
        path = write(tmp_path, "int.json", payload)
        assert main([command, "--in", path, *N_OPTION.get(command, [])]) in (0, 1)
        assert capsys.readouterr().err == ""

    def test_decode_int(self):
        assert decode_int(7, "f") == 7
        with pytest.raises(SchemaError, match="f must be an integer, got 7.0"):
            decode_int(7.0, "f")


class TestHaarCommand:
    def test_twirl_report(self, tmp_path, capsys):
        path = write(tmp_path, "h.json", {"n": 2, "matrix": mat(np.diag([1.0, 0.0]))})
        assert main(["haar", "--in", path, "--samples", "5000", "--seed", "4"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["within_radius"] is True
        assert report["unitarity_defect"] <= 1e-12
        assert_close(decode_matrix(report["exact"], "e"), np.eye(2) / 2)

    def test_matrix_near_the_largest_float(self, tmp_path, capsys):
        """The Monte-Carlo sum is taken at unit scale, so an average that
        fits in a float is reported, not refused as an overflow."""
        path = write(tmp_path, "h.json", {"matrix": mat(1e305 * np.eye(2))})
        assert main(["haar", "--in", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["within_radius"] is True
        assert_close(decode_matrix(report["exact"], "e"), 1e305 * np.eye(2))

    def test_samples_beyond_the_stack_cap(self, tmp_path, capsys, monkeypatch):
        """10^12 draws of 2 x 2 unitaries would need a 6.4e13-byte stack:
        refused before any draw, as an input error.  The cap counts the
        one kept stack, samples n^2 16 bytes."""

        def never(*args):
            raise AssertionError("a Haar draw ran")

        # the command imports both from haar when it runs; mc_twirl draws through _mc_draws too
        monkeypatch.setattr("nhomog.haar._mc_draws", never)
        monkeypatch.setattr("nhomog.haar.mc_twirl", never)
        path = write(tmp_path, "h.json", {"matrix": mat(np.eye(2))})
        assert main(["haar", "--in", path, "--samples", "1000000000000"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("nhomog: input error: --samples 1000000000000 at n = 2")
        assert f"above the cap of {cli.HAAR_STACK_CAP}" in err[0]
        samples = cli.HAAR_STACK_CAP // (4 * 16)  # the largest budget within the cap at n = 2
        with pytest.raises(AssertionError, match="a Haar draw ran"):
            main(["haar", "--in", path, "--samples", str(samples)])
        assert main(["haar", "--in", path, "--samples", str(samples + 1)]) == 2
        assert f"above the cap of {cli.HAAR_STACK_CAP}" in capsys.readouterr().err

    def test_a_negative_budget_is_an_input_error(self, tmp_path, capsys):
        path = write(tmp_path, "h.json", {"matrix": mat(np.eye(2))})
        assert main(["haar", "--in", path, "--samples", "-5"]) == 2
        assert capsys.readouterr().err == "nhomog: input error: samples=-5 < 1000\n"


class TestNSpaceCommand:
    def test_ideal_and_classification(self, tmp_path, capsys):
        zero = np.zeros((2, 2))
        payload = {
            "space": {"n": 2, "orbits": 2},
            "generators": [{"values": [mat(SX), mat(zero)]}],
            "rep": [
                [[mat(zero), mat(zero)], [mat(zero), mat(zero)]],
                [
                    [mat([[1, 0], [0, 0]]), mat([[0, 1], [0, 0]])],
                    [mat([[0, 0], [1, 0]]), mat([[0, 0], [0, 1]])],
                ],
            ],
        }
        path = write(tmp_path, "ns.json", payload)
        assert main(["nspace", "--in", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["vanishing_set"] == [1]
        assert report["ideal_dim"] == 4
        assert report["classification"]["kind"] == "point"
        assert report["classification"]["orbit"] == 1

    def test_report_never_forms_the_basis(self, tmp_path, capsys, monkeypatch):
        """The report reads the ideal's dimension and orbit lists, not its
        dense basis of matrix units."""
        zero = np.zeros((2, 2))
        payload = {"space": {"n": 2, "orbits": 3}, "generators": [{"values": [mat(SX), mat(zero), mat(SZ)]}]}
        path = write(tmp_path, "ns.json", payload)
        assert main(["nspace", "--in", path]) == 0
        want = capsys.readouterr().out

        def never(*args):
            raise AssertionError("the ideal's basis was formed")

        monkeypatch.setattr(n_space, "SubspaceBasis", never)
        assert main(["nspace", "--in", path]) == 0
        assert capsys.readouterr().out == want
        assert json.loads(want)["ideal_dim"] == 8

    def test_near_unitary_point_is_classified(self, tmp_path, capsys):
        # the images of the Hadamard point scaled by 1 + 5e-8 pass the 1e-6
        # star-hom check; the representative is the nearest unitary
        u = (1 + 5e-8) * HADAMARD
        rep = [[[mat(np.outer(u[:, j], u[:, k].conj())) for k in range(2)] for j in range(2)]]
        path = write(tmp_path, "near.json", {"space": {"n": 2, "orbits": 1}, "rep": rep})
        assert main(["nspace", "--in", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["classification"]["kind"] == "point"
        assert report["classification"]["orbit"] == 0
        assert_close(decode_matrix(report["classification"]["unitary"], "u"), HADAMARD, atol=1e-12)


def reference_decode_matrix(obj, where):
    """decode_matrix as it was before the numpy conversion: every entry
    checked and converted in Python, one at a time."""

    def decode_complex(v, at):
        if (
            not isinstance(v, (list, tuple))
            or len(v) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)
        ):
            raise SchemaError(f"{at}: a complex number must be a [re, im] pair, got {v!r}")
        re, im = float(v[0]), float(v[1])
        if not (math.isfinite(re) and math.isfinite(im)):
            raise SchemaError(f"{at}: non-finite entry {v!r}")
        return complex(re, im)

    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{where}: a matrix must be a nonempty list of rows")
    rows = []
    width = None
    for r, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"{where}: row {r} must be a nonempty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"{where}: ragged rows (row {r} has {len(row)} entries, expected {width})")
        rows.append([decode_complex(v, f"{where}[{r}]") for v in row])
    return np.array(rows, dtype=complex)


def reference_fn_values(fn, n):
    """One sw-check generator function decoded as it was: matrix by
    matrix, then shape by shape."""
    mats = [reference_decode_matrix(m, f"generators[0][{p}]") for p, m in enumerate(fn)]
    for p, m in enumerate(mats):
        if m.shape != (n, n):
            raise SchemaError(f"generators[0][{p}] has shape {m.shape}, expected ({n}, {n})")
    return np.stack(mats)


def outcome(decode, *args):
    """("ok", shape, bytes) of a decoded array, or ("error", message)."""
    try:
        a = decode(*args)
    except SchemaError as exc:
        return ("error", str(exc))
    assert a.dtype == complex
    return ("ok", a.shape, a.tobytes())


# JSON numbers within float range: -0.0, subnormals, the largest floats,
# and integers past 2**53 and 2**64 that round when converted
NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 0, 5e-324, -5e-324, 1.7976931348623157e308, 2**53 + 1, -(2**64) - 1]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**80), 2**80),
    st.integers(-(10**308), 10**308),
)
# one bad entry or row; 10**400 is left out, since the old walk let its
# OverflowError escape (see TestTracebackCases)
BAD_ENTRIES = [
    True, False, "1.0", None, [1.0], [1.0, 0.0, 0.0], [], [[1.0], 0.0], [True, 0.0],
    [0.0, False], ["1.0", 0.0], [None, 0.0], [math.nan, 0.0], [0.0, math.inf], [-math.inf, 1], 2.5,
]
BAD_ROWS = ["empty", "short", "long", "scalar"]


@st.composite
def matrix_payloads(draw, rows=None, cols=None):
    r = rows or draw(st.integers(1, 4))
    c = cols or draw(st.integers(1, 4))
    return [[[draw(NUMBERS), draw(NUMBERS)] for _ in range(c)] for _ in range(r)]


@st.composite
def corrupted(draw, payload):
    """The payload with one or two entries or rows spoiled."""
    payload = list(payload)
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(payload) - 1))
        row = list(payload[i]) if isinstance(payload[i], list) else []
        if row and draw(st.booleans()):
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BAD_ENTRIES))
            payload[i] = row
        else:
            kind = draw(st.sampled_from(BAD_ROWS))
            payload[i] = {"empty": [], "short": row[:-1], "long": row + [[0.0, 0.0]], "scalar": 1.0}[kind]
    return payload


class TestNumpyDecode:
    """decode_matrix converts a payload with one numpy call; on every
    payload it must agree with the old entry-by-entry walk."""

    @settings(max_examples=300, deadline=None)
    @given(matrix_payloads())
    @example([[[-0.0, 1.0], [0.0, -0.0]], [[-0.0, -0.0], [5e-324, -1]]])
    def test_well_formed_bit_identical(self, payload):
        got = outcome(decode_matrix, payload, "m")
        assert got[0] == "ok"
        assert got == outcome(reference_decode_matrix, payload, "m")

    @settings(max_examples=300, deadline=None)
    @given(matrix_payloads().flatmap(corrupted))
    def test_corrupted_same_message(self, payload):
        assert outcome(decode_matrix, payload, "m") == outcome(reference_decode_matrix, payload, "m")

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_fn_algebra_values_same_as_per_matrix(self, points, n, data):
        fn = [data.draw(matrix_payloads(n, n)) for _ in range(points)]
        if data.draw(st.booleans()):
            p = data.draw(st.integers(0, points - 1))
            fn[p] = data.draw(st.one_of(corrupted(fn[p]), matrix_payloads()))
        payload = {"points": points, "n": n, "generators": [fn]}
        got = outcome(lambda: decode_fn_algebra_input(payload)[2][0])
        assert got == outcome(reference_fn_values, fn, n)

    def test_refused_payload_is_never_accepted(self, monkeypatch):
        # the walk only names faults: if the numpy check refuses a payload
        # the walk finds nothing wrong with, it is still an error
        convert = jsonio._complex_array
        monkeypatch.setattr(jsonio, "_complex_array", lambda obj, depth: None)
        with pytest.raises(SchemaError, match="m: malformed matrix"):
            decode_matrix(mat(SX), "m")
        # each field is converted whole: sw-check generators at depth 4,
        # a tuple's generators at depth 3
        monkeypatch.setattr(jsonio, "_complex_array",
                            lambda obj, depth: None if depth == 4 else convert(obj, depth))
        with pytest.raises(SchemaError, match=r"^generators: malformed values"):
            decode_fn_algebra_input({"points": 1, "n": 2, "generators": [[mat(SX)]]})
        monkeypatch.setattr(jsonio, "_complex_array",
                            lambda obj, depth: None if depth == 3 else convert(obj, depth))
        with pytest.raises(SchemaError, match=r"^tuple.generators: malformed values"):
            decode_tuple({"generators": [mat(SX)]})

    def test_encode_matches_entry_loop(self):
        rng = np.random.default_rng(7)
        specials = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1.7e308, 1e-300, 2.0**60])
        for _ in range(250):
            d = int(rng.integers(1, 21))
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            mask = rng.random((d, d)) < 0.3
            m.real[mask] = rng.choice(specials, mask.sum())
            m.imag[mask] = rng.choice(specials, mask.sum())
            loop = [[[complex(v).real, complex(v).imag] for v in row] for row in m]
            assert dump_report({"m": encode_matrix(m)}) == dump_report({"m": loop})


def matrix_sites(bad):
    """One payload per matrix site of the CLI inputs, with ``bad`` as the
    matrix at that site and every other field valid, and the name the
    error must carry."""
    zero = mat(np.zeros((2, 2)))
    pair = {"generators": [mat(SX), bad]}
    return {
        "analyze generators": ("analyze", pair, "tuple.generators[1]"),
        "calc tuple": ("calc", {"tuple": pair, "polynomial": "z1"}, "tuple.generators[1]"),
        "calc table values": ("calc", {"tuple": {"generators": [mat(SX), mat(SZ)]},
                                       "table": {"values": [bad]}}, "table.values[0]"),
        "sw-check generators": ("sw-check", {"points": 2, "n": 2, "generators": [[mat(SX), bad]]},
                                "generators[0][1]"),
        "haar matrix": ("haar", {"matrix": bad}, "matrix"),
        "nspace values": ("nspace", {"space": {"n": 2, "orbits": 1},
                                     "generators": [{"values": [bad]}]}, "generators[0].values[0]"),
        "nspace rep": ("nspace", {"space": {"n": 2, "orbits": 1},
                                  "rep": [[[bad, zero], [zero, zero]]]}, "rep[0][0][0]"),
    }


def spoiled(value, where="scalar"):
    """A 2 x 2 matrix of floats with ``value`` as the real part (or, with
    where="entry", the whole entry) of its entry [1][0]."""
    m = mat(np.diag([0.5, 0.25]))
    m[1][0] = [value, 0.0] if where == "scalar" else value
    return m


FLOAT_ROW = [[0.5, 0.0], [0.25, 0.0]]
MALFORMED_MATRICES = {
    "true": spoiled(True),
    "false": spoiled(False),
    "true entry": spoiled(True, "entry"),
    "string": spoiled("1.0"),
    "null": spoiled(None),
    "nested list": spoiled([1.0]),
    "pair of 1": spoiled([1.0], "entry"),
    "pair of 3": spoiled([1.0, 0.0, 0.0], "entry"),
    "NaN": spoiled(math.nan),
    "Infinity": spoiled(math.inf),
    "10**400": spoiled(10**400),
    "empty row": [FLOAT_ROW, []],
    "ragged rows": [FLOAT_ROW, FLOAT_ROW[:1]],
    "scalar row": [FLOAT_ROW, 0.5],
    "bool in float row": [FLOAT_ROW, [[0.125, 0.0], [0.0, True]]],
}


class TestMalformedMatrices:
    """Every matrix site refuses every malformed payload with exit 2 and
    one stderr line naming the site, never a traceback or a coerced value."""

    @pytest.mark.parametrize("bad", list(MALFORMED_MATRICES))
    @pytest.mark.parametrize("site", list(matrix_sites(None)))
    def test_exit_two_naming_site(self, tmp_path, capsys, site, bad):
        command, payload, where = matrix_sites(MALFORMED_MATRICES[bad])[site]
        path = write(tmp_path, "bad.json", payload)
        assert main([command, "--in", path, *N_OPTION.get(command, [])]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"nhomog: input error: {where}")


# every argv the suite, the benchmark and the digest script pass to main
SUITE_ARGVS = [
    ["analyze", "--in", "f.json", "--n", "2"],
    ["analyze", "--in", "f.json", "--n", "2", "--seed", "5"],
    ["analyze", "--in", "f.json", "--n", "2", "--tol", "0.5"],
    ["analyze", "--in", "f.json", "--n", "2", "--tol", "-1"],
    ["analyze", "--in", "f.json", "--n", "2", "--out", "report.json"],
    ["analyze", "--in", "f.json", "--n", "2", "--human"],
    ["analyze", "--in", "f.json", "--n", "3", "--seed", "0"],
    ["spectrum", "--in", "f.json", "--n", "2"],
    ["calc", "--in", "f.json", "--n", "2"],
    ["calc", "--in", "f.json"],
    ["calc", "--in", "f.json", "--n", "2", "--seed", "0"],
    ["sw-check", "--in", "f.json"],
    ["sw-check", "--in", "f.json", "--seed", "0"],
    ["haar", "--in", "f.json", "--samples", "5000", "--seed", "4"],
    ["haar", "--in", "f.json", "--seed", "3"],
    ["nspace", "--in", "f.json"],
]
COMMAND_HELP = {
    "analyze": "decide n-homogeneity of a matrix tuple",
    "spectrum": "orbit representatives and multiplicities of an n-homogeneous tuple",
    "calc": "apply a *-polynomial or orbit table through the decomposition",
    "sw-check": "density / two-point approximability report for a function algebra",
    "haar": "unitary-average diagnostics: exact twirl vs Monte Carlo",
    "nspace": "ideal correspondence and representation classification",
}


def reference_build_parser():
    """The parser as it was: one subparser per command, each declaring
    the same seven options."""
    parser = argparse.ArgumentParser(prog="nhomog")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMAND_HELP:
        p = sub.add_parser(name)
        p.add_argument("--in", dest="input_path", required=True)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=20000)
        p.add_argument("--out", default=None)
        p.add_argument("--human", action="store_true")
    return parser


class TestParser:
    @pytest.mark.parametrize("argv", SUITE_ARGVS, ids=" ".join)
    def test_suite_argv_same_config(self, argv, monkeypatch):
        monkeypatch.delenv("NHOMOG_SEED", raising=False)
        new, old = build_parser().parse_args(argv), reference_build_parser().parse_args(argv)
        assert vars(new) == vars(old)
        try:
            want = _config(old)
        except SchemaError as exc:
            with pytest.raises(SchemaError, match=re.escape(str(exc))):
                _config(new)
        else:
            assert _config(new) == want

    @pytest.mark.parametrize("argv", [
        ["--in", "f.json"],
        ["bogus", "--in", "f.json"],
        ["analyze", "--n", "2"],
        [],
    ])
    def test_argparse_errors_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "nhomog: error:" in capsys.readouterr().err

    def test_parser_built_once(self, pauli_file, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
        assert main(["analyze", "--in", pauli_file, "--n", "2"]) == 0
        assert main(["spectrum", "--in", pauli_file, "--n", "2"]) == 0
        with pytest.raises(SystemExit):
            main(["bogus", "--in", pauli_file])

    @pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]])
    def test_help_lists_every_command(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name, text in COMMAND_HELP.items():
            assert any(line.split() == [name, *text.split()] for line in out.splitlines()), name


class TestTracebackCases:
    """Inputs that once ended in a traceback now exit 2 with one line."""

    def run_one_line(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("nhomog: input error:")
        return err[0]

    def test_int_too_large_for_float(self, tmp_path, capsys):
        big = 10**400
        assert jsonio._complex_array([[[big, 0]]], 2) is None
        with pytest.raises(SchemaError, match=r"m\[0\]: entry \[1000+, 0\] is too large for a float"):
            decode_matrix([[[big, 0]]], "m")
        path = write(tmp_path, "big.json", {"generators": [[[[big, 0]]]]})
        err = self.run_one_line(capsys, ["analyze", "--in", path, "--n", "1"])
        assert "tuple.generators[0][0]: entry" in err and "too large" in err
        path = write(tmp_path, "bigsw.json", {"points": 1, "n": 1, "generators": [[[[[0, big]]]]]})
        err = self.run_one_line(capsys, ["sw-check", "--in", path])
        assert "generators[0][0][0]: entry" in err and "too large" in err

    @pytest.mark.parametrize("command", ["analyze", "haar"])
    def test_negative_seed_flag(self, tmp_path, capsys, command):
        path = write(tmp_path, "h.json", {"generators": [mat(SX)], "matrix": mat(SX)})
        err = self.run_one_line(capsys, [command, "--in", path, "--n", "2", "--seed", "-1"])
        assert err.endswith("--seed must be >= 0, got -1")

    def test_negative_seed_env(self, pauli_file, capsys, monkeypatch):
        monkeypatch.setenv("NHOMOG_SEED", "-4")
        err = self.run_one_line(capsys, ["analyze", "--in", pauli_file, "--n", "2"])
        assert err.endswith("NHOMOG_SEED must be >= 0, got -4")

    @pytest.mark.parametrize("content", [
        b"\xff\xfe\xff",  # a UTF-16 byte-order mark, then a truncated code unit
        b'\x80{"generators": []}',  # not UTF-8
        b"[" * 100000,  # nested past the parser's recursion limit
        b"1" * 5000,  # more digits than int() converts
    ], ids=["truncated-utf16", "not-utf8", "too-deep", "too-many-digits"])
    def test_undecodable_input(self, tmp_path, capsys, content):
        path = tmp_path / "raw.json"
        path.write_bytes(content)
        with pytest.raises(ParseError, match="invalid JSON"):
            load_json(path)
        self.run_one_line(capsys, ["analyze", "--in", str(path), "--n", "2"])

    def test_directory_input(self, tmp_path, capsys):
        with pytest.raises(ParseError, match="cannot read"):
            load_json(tmp_path)
        self.run_one_line(capsys, ["analyze", "--in", str(tmp_path), "--n", "2"])

    def test_missing_file_message_kept(self, tmp_path):
        with pytest.raises(ParseError, match="input file .* does not exist"):
            load_json(tmp_path / "none.json")

    def test_out_in_missing_directory(self, pauli_file, tmp_path, capsys, monkeypatch):
        """--out is opened before the work, so the tuple is never analysed."""

        def never(*args):
            raise AssertionError("the work ran before --out was opened")

        monkeypatch.setattr(cli, "homogeneity_verdict", never)
        out = tmp_path / "missing" / "x.json"
        err = self.run_one_line(capsys, ["analyze", "--in", pauli_file, "--n", "2", "--out", str(out)])
        assert err.endswith(f"--out {out}: cannot open for writing: No such file or directory")
        assert not out.parent.exists()

    @pytest.mark.parametrize("spelling", ["same", "relative", "link"])
    def test_out_naming_the_input_is_refused(self, pauli_file, tmp_path, capsys, monkeypatch, spelling):
        """Opening --out empties it, so an --out that names the --in file,
        by any path, is refused before anything is opened; the input
        keeps its bytes."""
        before = open(pauli_file, "rb").read()
        monkeypatch.chdir(tmp_path)
        out = {"same": pauli_file, "relative": "./pauli.json", "link": str(tmp_path / "link.json")}[spelling]
        if spelling == "link":
            (tmp_path / "link.json").symlink_to(pauli_file)
        err = self.run_one_line(capsys, ["analyze", "--in", pauli_file, "--n", "2", "--out", out])
        assert err == f"nhomog: input error: --out {out} is the --in file; writing the report there would empty the input"
        assert open(pauli_file, "rb").read() == before
        assert main(["analyze", "--in", pauli_file, "--n", "2", "--out", str(tmp_path / "report.json")]) == 0
        assert json.loads((tmp_path / "report.json").read_text())["is_n_homogeneous"] is True

    def test_calc_table_values_not_a_list(self, tmp_path, capsys):
        path = write(tmp_path, "calc.json", {"tuple": {"generators": [mat(SX), mat(SZ)]}, "table": {"values": 5}})
        err = self.run_one_line(capsys, ["calc", "--in", path])
        assert err.endswith("table.values must be a list, got 5")

    def test_nspace_generators_not_a_list(self, tmp_path, capsys):
        path = write(tmp_path, "ns.json", {"space": {"n": 2, "orbits": 1}, "generators": 5})
        err = self.run_one_line(capsys, ["nspace", "--in", path])
        assert err.endswith("generators must be a list, got 5")

    def test_nspace_zero_orbits(self, tmp_path, capsys):
        path = write(tmp_path, "ns.json", {"space": {"n": 2, "orbits": 0}})
        err = self.run_one_line(capsys, ["nspace", "--in", path])
        assert err.endswith("space.orbits must be >= 1, got 0")

    def test_nspace_large_space_without_generators(self, tmp_path, capsys):
        """64 orbits of 64 x 64 matrices: the zero ideal is formed from its
        support rows alone (none), not sliced out of a 1 TiB identity."""
        path = write(tmp_path, "ns.json", {"space": {"n": 64, "orbits": 64}})
        assert main(["nspace", "--in", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ideal_dim"] == 0 and report["support"] == []
        assert report["vanishing_set"] == list(range(64))

    @pytest.mark.parametrize("command, work, payload", [
        ("analyze", "homogeneity_verdict", {"generators": [mat(SX)]}),
        ("sw-check", "closure_star_subalgebra", {"points": 1, "n": 1, "generators": []}),
        ("nspace", "ideal_set_correspondence", {"space": {"n": 1, "orbits": 1}}),
    ])
    def test_memory_error_exits_two(self, tmp_path, capsys, monkeypatch, command, work, payload):
        """An input that asks for more memory than the host holds is an
        input error, as the haar stack cap is.  No test allocates for real:
        a size refused on one host may be granted on a larger one."""

        def too_big(*args, **kwargs):
            raise MemoryError("Unable to allocate 9.31 GiB for an array with shape (100000, 100000)")

        owner = {"homogeneity_verdict": "nhomog.cli", "closure_star_subalgebra": "nhomog.sw_engine",
                 "ideal_set_correspondence": "nhomog.n_space"}[work]  # the namespace the command reads it from
        monkeypatch.setattr(f"{owner}.{work}", too_big)
        path = write(tmp_path, "in.json", payload)
        err = self.run_one_line(capsys, [command, "--in", path, "--n", "2"])
        assert err == f"nhomog: input error: {command} on this input does not fit in memory"

    @pytest.mark.parametrize("payload", [
        {"points": 10**400, "n": 1, "generators": []},
        {"points": 1, "n": 2**40, "generators": []},
    ])
    def test_sw_check_sizes_no_array_can_hold(self, tmp_path, capsys, payload):
        path = write(tmp_path, "sw.json", payload)
        assert self.run_one_line(capsys, ["sw-check", "--in", path]).endswith("do not fit in memory")

    @pytest.mark.parametrize("space", [{"n": 1, "orbits": 10**400}, {"n": 10**400, "orbits": 1}])
    def test_nspace_sizes_no_array_can_hold(self, tmp_path, capsys, space):
        path = write(tmp_path, "ns.json", {"space": space})
        assert self.run_one_line(capsys, ["nspace", "--in", path]).endswith("do not fit in memory")


def no_split(*args, **kwargs):
    raise AssertionError("the tuple was split before its calc payload was checked")


class TestCalcFaultsBeforeWork:
    """Every calc payload fault exits 2 with one line before the tuple is
    split, with --n (whose false verdict would exit 1) and without it."""

    TUPLE = {"generators": [mat(np.diag([1.0, 2.0, 3.0]))]}
    FAULTS = {
        "no polynomial or table": ({}, "calc input needs a 'polynomial' or 'table' field"),
        "polynomial 7": ({"polynomial": 7}, "'polynomial' must be a string"),
        "unparsable polynomial": ({"polynomial": "z1 ** q"}, "polynomial: cannot parse factor"),
        "table values not a list": ({"table": {"values": 5}}, "table.values must be a list, got 5"),
        "bad table matrix": ({"table": {"values": [spoiled(True)]}}, "table.values[0][1]: a complex number"),
    }

    @pytest.mark.parametrize("n_option", [["--n", "2"], []], ids=["n2", "no-n"])
    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_exit_two_before_the_split(self, tmp_path, capsys, monkeypatch, fault, n_option):
        monkeypatch.setattr(cli, "homogeneity_verdict", no_split)
        monkeypatch.setattr(cli, "decompose", no_split)
        extra, message = self.FAULTS[fault]
        path = write(tmp_path, "calc.json", {"tuple": self.TUPLE, **extra})
        assert main(["calc", "--in", path, *n_option]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"nhomog: input error: {message}")
