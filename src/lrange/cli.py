"""Command-line front door: ``lrange <command> [flags]``.

Every command is deterministic given its flags; JSON reports embed the
resolved run configuration so a report can be replayed bit for bit.
Exit codes: 0 = verified/pass, 1 = violation or residual above
tolerance, 2 = invalid input (including a ``--tol`` that is not a positive
finite number).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field

from .core import NumericalError, UnitaryMatrix, _check_tol
from .ellipsoid import slice_params
from .jsonio import (
    FormatError,
    canonical_json,
    cloud_csv,
    decode_diagonal_tuple,
    decode_hermitian_tuple,
    decode_linear_map,
    decode_pinch_chain,
    decode_real_vector,
    decode_unitary,
    encode_ellipsoid,
    encode_membership,
    encode_report,
    encode_witness,
)
from .optimize import DescentOptions, orbit_distance
from .verify import (
    check_convex,
    check_star_shaped,
    counterexample_report,
    sample_orbit_cloud,
)
from .witness import WitnessError, chain_witness

__all__ = ["RunConfig", "main"]

_DEFAULT_ALPHAS = tuple(round(0.1 * j, 10) for j in range(1, 10))


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation, embedded verbatim in every JSON report."""

    command: str
    input: str | None = None
    out: str | None = None
    seed: int = 0
    samples: int = 1000
    tol: float = 1e-6
    alphas: tuple = _DEFAULT_ALPHAS
    format: str = "json"
    extra: dict = field(default_factory=dict)

    def as_payload(self) -> dict:
        payload = asdict(self)
        payload["alphas"] = list(self.alphas)
        payload.update(payload.pop("extra"))
        return payload


class _CommandError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise _CommandError(2, f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CommandError(2, f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise _CommandError(2, f"{path}: top-level document must be an object")
    return payload


def _require(payload: dict, key: str, path: str):
    if key not in payload:
        raise _CommandError(2, f"{path}: missing field '{key}'")
    return payload[key]


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _result_doc(config: RunConfig, result: dict) -> str:
    return canonical_json({"config": config.as_payload(), "result": result})


def _parse_alphas(text: str | None) -> tuple:
    if text is None:
        return _DEFAULT_ALPHAS
    try:
        values = tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise _CommandError(2, f"--alphas: {exc}") from exc
    if not values or any(not 0.0 <= a <= 1.0 for a in values):
        raise _CommandError(2, "--alphas: need comma-separated values in [0, 1]")
    return values


def _cmd_sample(args) -> int:
    payload = _read_json(args.infile)
    spec = decode_linear_map(_require(payload, "l", args.infile))
    a = decode_hermitian_tuple(_require(payload, "a", args.infile))
    config = RunConfig(
        "sample",
        input=args.infile,
        out=args.out,
        seed=args.seed,
        samples=args.n,
        format=args.format,
    )
    cloud = sample_orbit_cloud(spec, a, args.n, args.seed)
    if args.format == "csv":
        _emit(cloud_csv(cloud), args.out)
    else:
        result = {
            "l": cloud.l,
            "seed": cloud.seed,
            "n_samples": cloud.n_samples,
            "points": [[float(x) for x in row] for row in cloud.points],
        }
        _emit(_result_doc(config, result), args.out)
    return 0


def _cmd_witness(args) -> int:
    payload = _read_json(args.infile)
    spec = decode_linear_map(_require(payload, "l", args.infile))
    if spec.l > 3:
        raise _CommandError(
            2,
            f"witnesses exist only for l <= 3 output coordinates (got l={spec.l}); "
            "the inclusion fails beyond that — see `lrange counterexample`",
        )
    d = decode_diagonal_tuple(_require(payload, "d", args.infile))
    chain = decode_pinch_chain(_require(payload, "chain", args.infile))
    u = decode_unitary(payload["u"]) if "u" in payload else None
    config = RunConfig(
        "witness", input=args.infile, out=args.out, tol=args.tol
    )
    try:
        w = chain_witness(d, spec, chain, u, tol=args.tol)
    except WitnessError as exc:
        print(f"witness search failed: {exc}", file=sys.stderr)
        return 1
    _emit(_result_doc(config, encode_witness(w)), args.out)
    return 0 if w.residual <= args.tol else 1


def _cmd_star_check(args) -> int:
    payload = _read_json(args.infile)
    spec = decode_linear_map(_require(payload, "l", args.infile))
    d = decode_diagonal_tuple(_require(payload, "d", args.infile))
    alphas = _parse_alphas(args.alphas)
    config = RunConfig(
        "star-check",
        input=args.infile,
        out=args.out,
        seed=args.seed,
        samples=args.n,
        tol=args.tol,
        alphas=alphas,
    )
    report = check_star_shaped(
        spec, d, samples=args.n, alphas=alphas, tol=args.tol, seed=args.seed
    )
    _emit(_result_doc(config, encode_report(report)), args.out)
    return 0 if report.passed else 1


def _cmd_convexity(args) -> int:
    payload = _read_json(args.infile)
    spec = decode_linear_map(_require(payload, "l", args.infile))
    a = decode_hermitian_tuple(_require(payload, "a", args.infile))
    config = RunConfig(
        "convexity",
        input=args.infile,
        out=args.out,
        seed=args.seed,
        samples=args.n,
        tol=args.tol,
    )
    report = check_convex(spec, a, pairs=args.n, tol=args.tol, seed=args.seed)
    _emit(_result_doc(config, encode_report(report)), args.out)
    return 0 if report.passed else 1


def _cmd_counterexample(args) -> int:
    config = RunConfig(
        "counterexample",
        out=args.out,
        seed=args.seed,
        tol=args.tol,
        extra={"n": args.n, "m": args.m, "l": args.l, "restarts": args.restarts},
    )
    report = counterexample_report(
        n=args.n,
        m=args.m,
        l=args.l,
        restarts=args.restarts,
        tol=args.tol,
        seed=args.seed,
    )
    _emit(_result_doc(config, encode_report(report)), args.out)
    return 0 if report.passed else 1


def _cmd_ellipsoid(args) -> int:
    payload = _read_json(args.infile)
    spec = decode_linear_map(_require(payload, "l", args.infile))
    d = decode_diagonal_tuple(_require(payload, "d", args.infile))
    u = (
        decode_unitary(payload["u"])
        if "u" in payload
        else UnitaryMatrix.identity(d.n)
    )
    config = RunConfig("ellipsoid", input=args.infile, out=args.out)
    params = slice_params(d, u, spec)
    _emit(_result_doc(config, encode_ellipsoid(params)), args.out)
    return 0


def _cmd_membership(args) -> int:
    payload = _read_json(args.infile)
    spec = decode_linear_map(_require(payload, "l", args.infile))
    a = decode_hermitian_tuple(_require(payload, "a", args.infile))
    y = decode_real_vector(_require(payload, "y", args.infile), "y", spec.l)
    config = RunConfig(
        "membership",
        input=args.infile,
        out=args.out,
        seed=args.seed,
        tol=args.tol,
        extra={"restarts": args.restarts},
    )
    result = orbit_distance(
        spec, a, y, DescentOptions(restarts=args.restarts, seed=args.seed)
    )
    _emit(_result_doc(config, encode_membership(result)), args.out)
    return 0 if result.distance <= args.tol else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrange",
        description="Orbit images of Hermitian tuples under trace-linear maps: "
        "sampling, witnesses, star/convexity certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample the orbit image into a point cloud")
    p.add_argument("--in", dest="infile", required=True, help="JSON with 'l' and 'a'")
    p.add_argument("--n", type=int, default=1000, help="number of samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(run=_cmd_sample)

    p = sub.add_parser("witness", help="construct a unitary realizing a pinched point")
    p.add_argument(
        "--in", dest="infile", required=True, help="JSON with 'd', 'chain', 'l' (optional 'u')"
    )
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_witness)

    p = sub.add_parser("star-check", help="certify segments to the trace center")
    p.add_argument("--in", dest="infile", required=True, help="JSON with 'd' and 'l'")
    p.add_argument("--n", type=int, default=20, help="number of sampled unitaries")
    p.add_argument("--alphas", default=None, help="comma-separated ray parameters")
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_star_check)

    p = sub.add_parser("convexity", help="test midpoint membership over sampled pairs")
    p.add_argument("--in", dest="infile", required=True, help="JSON with 'l' and 'a'")
    p.add_argument("--n", type=int, default=50, help="number of point pairs")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_convexity)

    p = sub.add_parser(
        "counterexample", help="certify the 4-coordinate inclusion failure"
    )
    p.add_argument("--n", type=int, default=3, help="matrix dimension (>= 2)")
    p.add_argument("--m", type=int, default=1, help="tuple length")
    p.add_argument("--l", type=int, default=4, help="output coordinates (must be 4)")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_counterexample)

    p = sub.add_parser("ellipsoid", help="slice parameters at a fixed unitary")
    p.add_argument(
        "--in", dest="infile", required=True, help="JSON with 'd' and 'l' (optional 'u')"
    )
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_ellipsoid)

    p = sub.add_parser("membership", help="best-found distance to the orbit image")
    p.add_argument(
        "--in", dest="infile", required=True, help="JSON with 'l', 'a' and target 'y'"
    )
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_membership)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "tol"):
            _check_tol(args.tol)
        return args.run(args)
    except _CommandError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except FormatError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (WitnessError, NumericalError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
