import json

import numpy as np
import pytest

from nhomog.cli import main
from nhomog.jsonio import (
    decode_matrix,
    dump_report,
    encode_matrix,
    load_json,
)
from nhomog.errors import ParseError, SchemaError

from conftest import SX, SZ, assert_close


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
        monkeypatch.setattr("nhomog.decomposition._random_hermitian", lambda span, rng: np.zeros((4, 4)))
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

    def test_bad_polynomial_exit_two(self, tmp_path):
        path = write(
            tmp_path, "badp.json", {"tuple": {"generators": [mat(SX)]}, "polynomial": "z9"}
        )
        assert main(["calc", "--in", path]) == 2


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


class TestHaarCommand:
    def test_twirl_report(self, tmp_path, capsys):
        path = write(tmp_path, "h.json", {"n": 2, "matrix": mat(np.diag([1.0, 0.0]))})
        assert main(["haar", "--in", path, "--samples", "5000", "--seed", "4"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["within_radius"] is True
        assert report["unitarity_defect"] <= 1e-12
        assert_close(decode_matrix(report["exact"], "e"), np.eye(2) / 2)


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
