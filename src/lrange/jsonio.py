"""Canonical JSON / CSV encoding for all result and input documents.

Encoding is deterministic (sorted keys, fixed indentation, shortest
round-trip floats), which is what makes re-running a command with the
same configuration reproduce its output byte for byte.  Complex scalars
travel as ``[re, im]`` pairs, matrices as row-major nested arrays.
Decoding errors carry the JSON path of the offending field.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .core import (
    DiagonalTuple,
    HermitianMatrix,
    HermitianTuple,
    LinearMapSpec,
    NumericalError,
    UnitaryMatrix,
)
from .ellipsoid import EllipsoidParams
from .optimize import MembershipResult
from .pinching import PinchChain, Pinching
from .verify import CertReport, PointCloud
from .witness import Witness

__all__ = [
    "FormatError",
    "canonical_json",
    "encode_matrix",
    "decode_matrix",
    "encode_hermitian_tuple",
    "decode_hermitian_tuple",
    "encode_diagonal_tuple",
    "decode_diagonal_tuple",
    "encode_linear_map",
    "decode_linear_map",
    "encode_pinch_chain",
    "decode_pinch_chain",
    "decode_unitary",
    "decode_real_vector",
    "encode_ellipsoid",
    "encode_witness",
    "encode_membership",
    "encode_report",
    "cloud_csv",
]


class FormatError(ValueError):
    """Malformed document; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _jsonsafe(value):
    """Recursively coerce numpy scalars/arrays into plain JSON values."""
    if isinstance(value, dict):
        return {str(k): _jsonsafe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonsafe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonsafe(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def _expect_dict(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise FormatError(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _field(obj: dict, key: str, path: str):
    if key not in obj:
        raise FormatError(f"{path}.{key}", "missing field")
    return obj[key]


def _decode_int(obj, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise FormatError(path, f"expected an integer, got {obj!r}")
    return obj


def _decode_real(obj, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise FormatError(path, f"expected a number, got {obj!r}")
    if not abs(obj) <= sys.float_info.max:  # NaN, infinities, huge integers
        raise FormatError(path, f"expected a finite number, got {obj!r}")
    return float(obj)


def _decode_complex(obj, path: str) -> complex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise FormatError(path, f"expected [re, im], got {obj!r}")
    return complex(_decode_real(obj[0], f"{path}[0]"), _decode_real(obj[1], f"{path}[1]"))


def encode_matrix(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[z.real, z.imag] for z in row] for row in m.tolist()]


def decode_matrix(obj, path: str, n: int | None = None) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise FormatError(path, "expected a non-empty array of rows")
    rows = len(obj)
    if n is not None and rows != n:
        raise FormatError(path, f"expected {n} rows, got {rows}")
    out = np.empty((rows, rows), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != rows:
            raise FormatError(f"{path}[{i}]", f"expected {rows} entries per row")
        for j, entry in enumerate(row):
            out[i, j] = _decode_complex(entry, f"{path}[{i}][{j}]")
    return out


def encode_hermitian_tuple(a: HermitianTuple) -> dict:
    return {
        "n": a.n,
        "m": a.m,
        "items": [encode_matrix(h.mat) for h in a.items],
    }


def decode_hermitian_tuple(obj, path: str = "a") -> HermitianTuple:
    obj = _expect_dict(obj, path)
    n = _decode_int(_field(obj, "n", path), f"{path}.n")
    m = _decode_int(_field(obj, "m", path), f"{path}.m")
    items = _field(obj, "items", path)
    if not isinstance(items, list) or len(items) != m:
        raise FormatError(f"{path}.items", f"expected {m} matrices")
    mats = []
    for i, item in enumerate(items):
        raw = decode_matrix(item, f"{path}.items[{i}]", n)
        try:
            mats.append(HermitianMatrix(raw))
        except (ValueError, NumericalError) as exc:
            raise FormatError(f"{path}.items[{i}]", str(exc)) from exc
    return HermitianTuple(tuple(mats))


def encode_diagonal_tuple(d: DiagonalTuple) -> dict:
    return {
        "n": d.n,
        "m": d.m,
        "vectors": [[float(x) for x in row] for row in d.vectors],
    }


def decode_diagonal_tuple(obj, path: str = "d") -> DiagonalTuple:
    obj = _expect_dict(obj, path)
    n = _decode_int(_field(obj, "n", path), f"{path}.n")
    m = _decode_int(_field(obj, "m", path), f"{path}.m")
    vectors = _field(obj, "vectors", path)
    if not isinstance(vectors, list) or len(vectors) != m:
        raise FormatError(f"{path}.vectors", f"expected {m} rows")
    out = np.empty((m, n))
    for i, row in enumerate(vectors):
        if not isinstance(row, list) or len(row) != n:
            raise FormatError(f"{path}.vectors[{i}]", f"expected {n} entries")
        for j, x in enumerate(row):
            out[i, j] = _decode_real(x, f"{path}.vectors[{i}][{j}]")
    return DiagonalTuple(out)


def encode_linear_map(spec: LinearMapSpec) -> dict:
    return {
        "l": spec.l,
        "m": spec.m,
        "n": spec.n,
        "coeffs": [
            [encode_matrix(c.mat) for c in row] for row in spec.coeffs
        ],
    }


def decode_linear_map(obj, path: str = "l") -> LinearMapSpec:
    obj = _expect_dict(obj, path)
    l = _decode_int(_field(obj, "l", path), f"{path}.l")
    m = _decode_int(_field(obj, "m", path), f"{path}.m")
    n = _decode_int(_field(obj, "n", path), f"{path}.n")
    coeffs = _field(obj, "coeffs", path)
    if not isinstance(coeffs, list) or len(coeffs) != l:
        raise FormatError(f"{path}.coeffs", f"expected {l} rows")
    grid = []
    for k, row in enumerate(coeffs):
        if not isinstance(row, list) or len(row) != m:
            raise FormatError(f"{path}.coeffs[{k}]", f"expected {m} matrices")
        entries = []
        for i, item in enumerate(row):
            raw = decode_matrix(item, f"{path}.coeffs[{k}][{i}]", n)
            try:
                entries.append(HermitianMatrix(raw))
            except (ValueError, NumericalError) as exc:
                raise FormatError(
                    f"{path}.coeffs[{k}][{i}]", str(exc)
                ) from exc
        grid.append(tuple(entries))
    try:
        return LinearMapSpec(tuple(grid))
    except ValueError as exc:
        raise FormatError(path, str(exc)) from exc


def encode_pinch_chain(chain: PinchChain) -> dict:
    return {
        "n": chain.n,
        "steps": [
            {"s": p.s, "t": p.t, "alpha": p.alpha} for p in chain.steps
        ],
    }


def decode_pinch_chain(obj, path: str = "chain") -> PinchChain:
    obj = _expect_dict(obj, path)
    n = _decode_int(_field(obj, "n", path), f"{path}.n")
    steps_obj = _field(obj, "steps", path)
    if not isinstance(steps_obj, list):
        raise FormatError(f"{path}.steps", "expected an array of steps")
    steps = []
    for j, step in enumerate(steps_obj):
        step = _expect_dict(step, f"{path}.steps[{j}]")
        s = _decode_int(_field(step, "s", f"{path}.steps[{j}]"), f"{path}.steps[{j}].s")
        t = _decode_int(_field(step, "t", f"{path}.steps[{j}]"), f"{path}.steps[{j}].t")
        alpha = _decode_real(
            _field(step, "alpha", f"{path}.steps[{j}]"), f"{path}.steps[{j}].alpha"
        )
        try:
            steps.append(Pinching(s, t, alpha))
        except ValueError as exc:
            raise FormatError(f"{path}.steps[{j}]", str(exc)) from exc
    try:
        return PinchChain(n, tuple(steps))
    except ValueError as exc:
        raise FormatError(path, str(exc)) from exc


def decode_unitary(obj, path: str = "u") -> UnitaryMatrix:
    raw = decode_matrix(obj, path)
    try:
        return UnitaryMatrix(raw)
    except (ValueError, NumericalError) as exc:
        raise FormatError(path, str(exc)) from exc


def decode_real_vector(obj, path: str, length: int | None = None) -> np.ndarray:
    if not isinstance(obj, list):
        raise FormatError(path, "expected an array of numbers")
    if length is not None and len(obj) != length:
        raise FormatError(path, f"expected {length} entries, got {len(obj)}")
    return np.array([_decode_real(x, f"{path}[{j}]") for j, x in enumerate(obj)])


def encode_ellipsoid(params: EllipsoidParams) -> dict:
    return {
        "a": [float(x) for x in params.a],
        "b": [float(x) for x in params.b],
        "c": [[z.real, z.imag] for z in params.c.tolist()],
    }


def encode_witness(w: Witness) -> dict:
    return {
        "uprime": encode_matrix(w.uprime.mat),
        "theta": float(w.theta),
        "phi": float(w.phi),
        "t": float(w.t),
        "residual": float(w.residual),
    }


def encode_membership(res: MembershipResult) -> dict:
    return {
        "distance": float(res.distance),
        "iterations": res.iterations,
        "restarts_used": res.restarts_used,
        "ubest": encode_matrix(res.ubest.mat),
    }


def encode_report(report: CertReport) -> dict:
    return {
        "kind": report.kind,
        "checked": report.checked,
        "failures": _jsonsafe(list(report.failures)),
        "max_residual": float(report.max_residual),
        "verdict": report.verdict,
        "details": _jsonsafe(report.details),
    }


def cloud_csv(cloud: PointCloud) -> str:
    header = ",".join(f"x{j + 1}" for j in range(cloud.l))
    lines = [header]
    for row in cloud.points:
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"
