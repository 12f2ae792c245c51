"""End-to-end tests for the ``lrange`` command line and its JSON formats."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from conftest import rand_map
from lrange import (
    DiagonalTuple,
    HermitianMatrix,
    HermitianTuple,
    eval_map,
    random_diagonal_tuple,
    random_hermitian_tuple,
)
from lrange.cli import main
from lrange.core import LinearMapSpec, make_c_map
from lrange.jsonio import (
    FormatError,
    canonical_json,
    decode_diagonal_tuple,
    decode_hermitian_tuple,
    decode_linear_map,
    decode_pinch_chain,
    encode_diagonal_tuple,
    encode_hermitian_tuple,
    encode_linear_map,
    encode_pinch_chain,
)
from lrange.pinching import PinchChain, Pinching

REPO = pathlib.Path(__file__).resolve().parents[1]


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def sample_input(tmp_path, seed=5):
    spec = rand_map(2, 2, 3, seed)
    a = random_hermitian_tuple(3, 2, seed + 1)
    return write_json(
        tmp_path,
        "in.json",
        {"l": encode_linear_map(spec), "a": encode_hermitian_tuple(a)},
    )


def decoded_matrix(obj):
    return np.array(
        [[complex(re, im) for re, im in row] for row in obj]
    )


# ---------------------------------------------------------------------------
# sample


def test_sample_csv_is_deterministic(tmp_path):
    infile = sample_input(tmp_path)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = ["sample", "--in", infile, "--n", "20", "--seed", "7"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    first = pathlib.Path(out1).read_bytes()
    assert first == pathlib.Path(out2).read_bytes()

    lines = first.decode().splitlines()
    assert lines[0] == "x1,x2"
    assert len(lines) == 21
    for line in lines[1:]:
        assert len([float(x) for x in line.split(",")]) == 2

    out3 = str(tmp_path / "c.csv")
    assert main(["sample", "--in", infile, "--n", "20", "--seed", "8",
                 "--out", out3]) == 0
    assert pathlib.Path(out3).read_bytes() != first


def test_sample_stdout_equals_file_output(tmp_path, capsys):
    infile = sample_input(tmp_path)
    out = str(tmp_path / "cloud.csv")
    assert main(["sample", "--in", infile, "--n", "5", "--out", out]) == 0
    capsys.readouterr()
    assert main(["sample", "--in", infile, "--n", "5"]) == 0
    assert capsys.readouterr().out == pathlib.Path(out).read_text(
        encoding="utf-8"
    )


def test_sample_json_embeds_run_config(tmp_path, capsys):
    infile = sample_input(tmp_path)
    assert main(["sample", "--in", infile, "--n", "6", "--seed", "3",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    config = doc["config"]
    assert config["command"] == "sample"
    assert config["samples"] == 6
    assert config["seed"] == 3
    assert config["format"] == "json"
    assert config["input"] == infile
    assert doc["result"]["l"] == 2
    assert len(doc["result"]["points"]) == 6


def test_sample_scalar_tuple_gives_constant_rows(tmp_path):
    eye = np.eye(2, dtype=complex)
    a = HermitianTuple(
        (HermitianMatrix(2.0 * eye), HermitianMatrix(-1.0 * eye))
    )
    infile = write_json(
        tmp_path,
        "in.json",
        {
            "l": encode_linear_map(rand_map(2, 2, 2, 44)),
            "a": encode_hermitian_tuple(a),
        },
    )
    out = str(tmp_path / "cloud.csv")
    assert main(["sample", "--in", infile, "--n", "30", "--out", out]) == 0
    rows = pathlib.Path(out).read_text(encoding="utf-8").splitlines()[1:]
    points = np.array([[float(x) for x in row.split(",")] for row in rows])
    assert points.shape == (30, 2)
    assert np.ptp(points, axis=0).max() <= 1e-12


# ---------------------------------------------------------------------------
# malformed input


def test_missing_input_file_exits_2(tmp_path, capsys):
    assert main(["sample", "--in", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_unparseable_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops", encoding="utf-8")
    assert main(["sample", "--in", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_top_level_array_exits_2(tmp_path, capsys):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2]", encoding="utf-8")
    assert main(["sample", "--in", str(path)]) == 2
    assert "top-level document must be an object" in capsys.readouterr().err


def test_missing_field_is_named(tmp_path, capsys):
    infile = write_json(
        tmp_path, "in.json", {"l": encode_linear_map(rand_map(2, 1, 2, 3))}
    )
    assert main(["sample", "--in", infile]) == 2
    assert "missing field 'a'" in capsys.readouterr().err


def test_malformed_field_path_is_named(tmp_path, capsys):
    payload = {
        "l": encode_linear_map(rand_map(2, 1, 2, 3)),
        "a": encode_hermitian_tuple(random_hermitian_tuple(2, 1, 4)),
    }
    payload["l"]["l"] = "three"
    infile = write_json(tmp_path, "bad_l.json", payload)
    assert main(["sample", "--in", infile]) == 2
    assert "l.l" in capsys.readouterr().err

    payload = {
        "l": encode_linear_map(rand_map(3, 1, 2, 3)),
        "a": encode_hermitian_tuple(random_hermitian_tuple(2, 1, 4)),
    }
    payload["l"]["coeffs"] = payload["l"]["coeffs"][:2]
    infile = write_json(tmp_path, "bad_rows.json", payload)
    assert main(["sample", "--in", infile]) == 2
    assert "l.coeffs" in capsys.readouterr().err


def test_bad_alphas_flag_exits_2(tmp_path, capsys):
    infile = write_json(
        tmp_path,
        "in.json",
        {
            "l": encode_linear_map(rand_map(2, 1, 3, 9)),
            "d": encode_diagonal_tuple(random_diagonal_tuple(3, 1, 9)),
        },
    )
    assert main(["star-check", "--in", infile, "--alphas", "0.5,2.0"]) == 2
    assert "--alphas" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# witness


def test_witness_empty_chain_returns_identity(tmp_path, capsys):
    spec = rand_map(2, 2, 4, 21)
    d = random_diagonal_tuple(4, 2, 33)
    infile = write_json(
        tmp_path,
        "in.json",
        {
            "l": encode_linear_map(spec),
            "d": encode_diagonal_tuple(d),
            "chain": encode_pinch_chain(PinchChain(4, ())),
        },
    )
    assert main(["witness", "--in", infile]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["residual"] <= 1e-10
    np.testing.assert_allclose(
        decoded_matrix(doc["result"]["uprime"]), np.eye(4), atol=1e-12
    )


def test_witness_single_pinch_below_tolerance(tmp_path, capsys):
    spec = rand_map(3, 2, 4, 57)
    d = random_diagonal_tuple(4, 2, 58)
    chain = PinchChain(4, (Pinching(2, 4, 0.35),))
    infile = write_json(
        tmp_path,
        "in.json",
        {
            "l": encode_linear_map(spec),
            "d": encode_diagonal_tuple(d),
            "chain": encode_pinch_chain(chain),
        },
    )
    assert main(["witness", "--in", infile, "--tol", "1e-6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["residual"] <= 1e-6
    assert doc["config"]["tol"] == 1e-6


def test_witness_rejects_four_output_maps(tmp_path, capsys):
    infile = write_json(
        tmp_path,
        "in.json",
        {
            "l": encode_linear_map(rand_map(4, 1, 3, 12)),
            "d": encode_diagonal_tuple(random_diagonal_tuple(3, 1, 12)),
            "chain": encode_pinch_chain(PinchChain(3, ())),
        },
    )
    assert main(["witness", "--in", infile]) == 2
    err = capsys.readouterr().err
    assert "lrange counterexample" in err
    assert "l=4" in err


def test_witness_demo_instance_ships_green(capsys):
    demo = REPO / "demos" / "witness_demo.json"
    assert demo.is_file()
    assert main(["witness", "--in", str(demo)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["residual"] <= 1e-6


# ---------------------------------------------------------------------------
# star-check / convexity


def test_star_check_passes_and_counts_segments(tmp_path, capsys):
    infile = write_json(
        tmp_path,
        "in.json",
        {
            "l": encode_linear_map(rand_map(3, 3, 3, 71)),
            "d": encode_diagonal_tuple(random_diagonal_tuple(3, 3, 72)),
        },
    )
    assert main(["star-check", "--in", infile, "--n", "2",
                 "--alphas", "0.3,0.7", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["alphas"] == [0.3, 0.7]
    assert doc["result"]["verdict"] == "pass"
    assert doc["result"]["checked"] == 4
    assert doc["result"]["failures"] == []


def test_convexity_passes_for_trace_functional(tmp_path, capsys):
    c = HermitianMatrix(np.diag([1.0, 0.0, -1.0]).astype(complex))
    spec = make_c_map(c, 2)
    infile = write_json(
        tmp_path,
        "in.json",
        {
            "l": encode_linear_map(spec),
            "a": encode_hermitian_tuple(random_hermitian_tuple(3, 2, 15)),
        },
    )
    assert main(["convexity", "--in", infile, "--n", "4", "--seed", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["verdict"] == "pass"
    assert doc["result"]["checked"] == 4


# ---------------------------------------------------------------------------
# counterexample


def test_counterexample_report_replays_byte_for_byte(tmp_path):
    out = str(tmp_path / "report.json")
    args = ["counterexample", "--restarts", "8", "--seed", "0", "--out", out]
    assert main(args) == 0
    blob = pathlib.Path(out).read_bytes()
    assert main(args) == 0
    assert blob == pathlib.Path(out).read_bytes()

    doc = json.loads(blob)
    assert doc["config"]["command"] == "counterexample"
    assert doc["config"]["n"] == 3
    assert doc["config"]["l"] == 4
    assert doc["result"]["verdict"] == "pass"
    details = doc["result"]["details"]
    assert details["membership_distance"] <= 1e-10
    assert details["separation_distance"] == pytest.approx(
        np.sqrt(0.5), abs=1e-3
    )


def test_counterexample_rejects_other_output_counts(capsys):
    assert main(["counterexample", "--l", "3"]) == 2
    assert capsys.readouterr().err


# ---------------------------------------------------------------------------
# ellipsoid / membership


def test_ellipsoid_reports_frozen_slice(tmp_path, capsys):
    zero = np.zeros((3, 3), dtype=complex)
    e11 = zero.copy()
    e11[0, 0] = 1.0
    sx = zero.copy()
    sx[0, 1] = sx[1, 0] = 1.0
    sy = zero.copy()
    sy[0, 1] = 1.0j
    sy[1, 0] = -1.0j
    spec = LinearMapSpec(
        tuple((HermitianMatrix(mat),) for mat in (e11, sx, sy))
    )
    d = DiagonalTuple(np.array([[1.0, -1.0, 0.0]]))
    infile = write_json(
        tmp_path,
        "in.json",
        {"l": encode_linear_map(spec), "d": encode_diagonal_tuple(d)},
    )
    assert main(["ellipsoid", "--in", infile]) == 0
    doc = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(doc["result"]["a"], [0.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(doc["result"]["b"], [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(
        doc["result"]["c"],
        [[0.0, 0.0], [2.0, 0.0], [0.0, -2.0]],
        atol=1e-12,
    )


def test_membership_accepts_point_on_orbit(tmp_path, capsys):
    spec = rand_map(2, 1, 3, 31)
    a = random_hermitian_tuple(3, 1, 77)
    y = [float(x) for x in eval_map(spec, a)]
    infile = write_json(
        tmp_path,
        "in.json",
        {
            "l": encode_linear_map(spec),
            "a": encode_hermitian_tuple(a),
            "y": y,
        },
    )
    assert main(["membership", "--in", infile, "--tol", "1e-10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["distance"] <= 1e-10


def test_membership_far_target_exits_1(tmp_path, capsys):
    spec = rand_map(2, 1, 3, 31)
    a = random_hermitian_tuple(3, 1, 77)
    y = [float(x) + 50.0 for x in eval_map(spec, a)]
    infile = write_json(
        tmp_path,
        "in.json",
        {
            "l": encode_linear_map(spec),
            "a": encode_hermitian_tuple(a),
            "y": y,
        },
    )
    assert main(["membership", "--in", infile, "--restarts", "2"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["distance"] > 1.0


def test_membership_rejects_wrong_target_length(tmp_path, capsys):
    spec = rand_map(2, 1, 3, 31)
    a = random_hermitian_tuple(3, 1, 77)
    infile = write_json(
        tmp_path,
        "in.json",
        {
            "l": encode_linear_map(spec),
            "a": encode_hermitian_tuple(a),
            "y": [1.0, 2.0, 3.0],
        },
    )
    assert main(["membership", "--in", infile]) == 2
    assert "y" in capsys.readouterr().err


@pytest.mark.parametrize(
    "literal",
    ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
    ids=["nan", "inf", "-inf", "huge-int"],
)
def test_membership_rejects_non_finite_target(tmp_path, capsys, literal):
    """``json`` accepts ``NaN`` and ``Infinity``; the decoder must not."""
    spec = rand_map(2, 1, 3, 31)
    a = random_hermitian_tuple(3, 1, 77)
    doc = {"l": encode_linear_map(spec), "a": encode_hermitian_tuple(a), "y": "Y"}
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps(doc).replace('"Y"', f"[{literal}, 0.0]"))
    assert main(["membership", "--in", str(infile)]) == 2
    assert "y[0]" in capsys.readouterr().err


def _src_env():
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def test_import_loads_no_scipy():
    """The runtime needs numpy only: importing ``scipy.linalg`` alone
    doubles a CLI run's peak RSS."""
    code = (
        "import sys, lrange.cli; "
        "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# console script


def test_console_script_is_wired_up(tmp_path, capsys):
    """The declared script target is ``lrange.cli.main`` and runs end to end.

    ``python -m lrange`` runs the same entry point in a fresh interpreter,
    so this needs no installed ``lrange`` binary on PATH.
    """
    import tomllib  # Python 3.11+

    with open(REPO / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["lrange"]
    module_name, _, attr = target.partition(":")
    assert (module_name, attr) == ("lrange.cli", "main")
    assert getattr(importlib.import_module(module_name), attr) is main

    infile = sample_input(tmp_path, seed=61)
    argv = ["sample", "--in", infile, "--n", "3", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-m", "lrange", *argv],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert len(doc["result"]["points"]) == 3
    assert main(argv) == 0
    assert capsys.readouterr().out == proc.stdout


# ---------------------------------------------------------------------------
# tolerances

DISHONEST_TOLS = ("nan", "inf", "0", "-1")


def star_input(tmp_path):
    return write_json(
        tmp_path,
        "star.json",
        {
            "l": encode_linear_map(rand_map(3, 3, 3, 71)),
            "d": encode_diagonal_tuple(random_diagonal_tuple(3, 3, 72)),
        },
    )


@pytest.mark.parametrize("tol", DISHONEST_TOLS)
def test_star_check_rejects_dishonest_tolerance(tmp_path, capsys, tol):
    infile = star_input(tmp_path)
    assert main(["star-check", "--in", infile, "--n", "1", f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert "tolerance must be positive and finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("tol", DISHONEST_TOLS)
def test_counterexample_rejects_dishonest_tolerance(capsys, tol):
    assert main(["counterexample", "--restarts", "1", f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert "tolerance must be positive and finite" in captured.err
    assert captured.out == ""


def test_other_commands_reject_nan_tolerance(tmp_path, capsys):
    spec = rand_map(3, 2, 3, 57)
    d = random_diagonal_tuple(3, 2, 58)
    a = random_hermitian_tuple(3, 2, 59)
    witness_in = write_json(
        tmp_path,
        "witness.json",
        {
            "l": encode_linear_map(spec),
            "d": encode_diagonal_tuple(d),
            "chain": encode_pinch_chain(PinchChain(3, (Pinching(1, 2, 0.35),))),
        },
    )
    orbit_in = write_json(
        tmp_path,
        "orbit.json",
        {
            "l": encode_linear_map(spec),
            "a": encode_hermitian_tuple(a),
            "y": [float(x) for x in eval_map(spec, a)],
        },
    )
    for argv in (
        ["witness", "--in", witness_in],
        ["convexity", "--in", orbit_in, "--n", "1"],
        ["membership", "--in", orbit_in, "--restarts", "1"],
    ):
        assert main(argv + ["--tol", "nan"]) == 2, argv
        captured = capsys.readouterr()
        assert "tolerance must be positive and finite" in captured.err
        assert captured.out == ""


# ---------------------------------------------------------------------------
# JSON round trips


class TestJsonFormats:
    def test_linear_map_round_trip(self):
        spec = rand_map(3, 2, 4, 123)
        again = decode_linear_map(encode_linear_map(spec))
        assert (again.l, again.m, again.n) == (3, 2, 4)
        for row_a, row_b in zip(spec.coeffs, again.coeffs):
            for ca, cb in zip(row_a, row_b):
                np.testing.assert_allclose(ca.mat, cb.mat, atol=1e-15)

    def test_hermitian_tuple_round_trip(self):
        a = random_hermitian_tuple(3, 2, 9)
        again = decode_hermitian_tuple(encode_hermitian_tuple(a))
        for ha, hb in zip(a.items, again.items):
            np.testing.assert_allclose(ha.mat, hb.mat, atol=1e-15)

    def test_diagonal_tuple_round_trip(self):
        d = random_diagonal_tuple(4, 3, 2)
        again = decode_diagonal_tuple(encode_diagonal_tuple(d))
        np.testing.assert_allclose(again.vectors, d.vectors)

    def test_pinch_chain_round_trip(self):
        chain = PinchChain(4, (Pinching(1, 3, 0.25), Pinching(2, 4, 0.75)))
        again = decode_pinch_chain(encode_pinch_chain(chain))
        assert again.n == 4
        assert again.steps == chain.steps

    def test_format_error_carries_field_path(self):
        with pytest.raises(FormatError) as exc:
            decode_linear_map({"l": "x", "m": 1, "n": 2, "coeffs": []})
        assert exc.value.path == "l.l"
        assert "l.l" in str(exc.value)

    def test_non_hermitian_entry_is_rejected(self):
        bad = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        with pytest.raises(FormatError) as exc:
            decode_hermitian_tuple({"n": 2, "m": 1, "items": [bad]})
        assert "items[0]" in str(exc.value)

    def test_canonical_json_is_sorted_and_newline_terminated(self):
        text = canonical_json({"b": 1, "a": [2, 3]})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")
        assert json.loads(text) == {"a": [2, 3], "b": 1}
