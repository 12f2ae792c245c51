"""Empirical certification: clouds, star/convexity checks, counterexample.

Every check here produces a ``CertReport`` that records each failure with
enough input metadata (seeds, indices, parameters) to replay it exactly.
A "pass" means the property held on everything sampled at the stated
tolerance — membership queries go through descent, so a failure is
evidence of either a genuine violation or solver shortfall, and the
report says which instance to re-examine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DiagonalTuple,
    HermitianMatrix,
    HermitianTuple,
    LinearMapSpec,
    NumericalError,
    _check_fits,
    _check_tol,
    conjugate_tuple,
    derive_seed,
    eval_map,
    haar_unitary,
)
from .ellipsoid import _lift
from .optimize import DescentOptions, orbit_distance
from .pinching import PinchChain, Pinching, apply_chain
from .witness import WitnessError, star_point_witness, star_scaling_chain

__all__ = [
    "PointCloud",
    "CertReport",
    "sample_orbit_cloud",
    "check_star_shaped",
    "check_convex",
    "scale_offdiag",
    "check_ct_inclusion",
    "counterexample_instance",
    "counterexample_report",
]

_PINCHED_MEMBERSHIP_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Orbit image samples, reproducible from (seed, n_samples)."""

    points: np.ndarray
    seed: int
    n_samples: int

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] != self.n_samples:
            raise ValueError(
                f"expected ({self.n_samples}, l) points, got shape {pts.shape}"
            )
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def l(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class CertReport:
    """Outcome of one certification run; verdict is derived, not chosen."""

    kind: str
    checked: int
    failures: tuple
    max_residual: float
    details: dict
    verdict: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "verdict", "pass" if not self.failures else "fail"
        )

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def sample_orbit_cloud(
    spec: LinearMapSpec, a: HermitianTuple, n_samples: int, seed: int = 0
) -> PointCloud:
    """Evaluate the map at ``n_samples`` Haar unitaries.

    Sample ``j`` is drawn with seed ``derive_seed(seed, j)``, so distinct
    seeds give independent clouds.
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    _check_fits(spec, a)
    points = np.empty((n_samples, spec.l))
    for j in range(n_samples):
        u = haar_unitary(a.n, derive_seed(seed, j))
        points[j] = eval_map(spec, conjugate_tuple(a, u))
    return PointCloud(points, seed, n_samples)


def check_star_shaped(
    spec: LinearMapSpec,
    d: DiagonalTuple,
    samples: int = 20,
    alphas=None,
    tol: float = 1e-3,
    seed: int = 0,
) -> CertReport:
    """Certify segments from sampled orbit points to the trace center.

    For every sampled unitary and every ray parameter, a constructive
    witness is produced and its re-evaluated residual compared against
    ``tol``.  Scaling chains are synthesized once per ray parameter and
    shared across unitaries.
    """
    _check_tol(tol)
    _lift(spec, d)
    n = d.n
    if spec.l == 3 and n < 3:
        raise ValueError("three output coordinates require n >= 3")
    if n < 2:
        raise ValueError("need n >= 2")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if alphas is None:
        alphas = [round(0.1 * j, 10) for j in range(1, 10)]
    alphas = [float(a) for a in alphas]

    chains = {}
    if n > 2:
        for alpha in alphas:
            if 0.0 < alpha < 1.0:
                chains[alpha] = star_scaling_chain(d, spec, alpha, tol)

    failures = []
    max_residual = 0.0
    max_synth = 0.0
    checked = 0
    for u_idx in range(samples):
        u = haar_unitary(n, derive_seed(seed, u_idx))
        for alpha in alphas:
            checked += 1
            try:
                sw = star_point_witness(
                    d, spec, u, alpha, tol=tol, synth=chains.get(alpha)
                )
                residual = sw.witness.residual
                max_synth = max(max_synth, sw.synth_error)
            except (WitnessError, NumericalError) as exc:
                failures.append(
                    {
                        "input": {"sample": u_idx, "alpha": alpha, "seed": seed},
                        "residual": float("inf"),
                        "error": str(exc),
                    }
                )
                continue
            max_residual = max(max_residual, residual)
            if residual > tol:
                failures.append(
                    {
                        "input": {"sample": u_idx, "alpha": alpha, "seed": seed},
                        "residual": residual,
                    }
                )
    details = {
        "samples": samples,
        "alphas": alphas,
        "seed": seed,
        "tol": tol,
        "max_synth_error": max_synth,
    }
    return CertReport("star", checked, tuple(failures), max_residual, details)


def check_convex(
    spec: LinearMapSpec,
    a: HermitianTuple,
    pairs: int = 50,
    tol: float = 1e-4,
    seed: int = 0,
) -> CertReport:
    """Test midpoint membership for sampled point pairs of the orbit image.

    Sound only as a refutation device: a midpoint the solver cannot reach
    is recorded with its best-found distance, which for genuinely convex
    regimes flags solver shortfall and otherwise exhibits non-convexity.
    """
    _check_tol(tol)
    if pairs < 1:
        raise ValueError(f"need at least one pair, got {pairs}")
    cloud = sample_orbit_cloud(spec, a, 2 * pairs, seed)
    failures = []
    max_residual = 0.0
    for j in range(pairs):
        y = 0.5 * (cloud.points[2 * j] + cloud.points[2 * j + 1])
        res = orbit_distance(
            spec,
            a,
            y,
            DescentOptions(seed=derive_seed(seed, j), target_distance=0.5 * tol),
        )
        max_residual = max(max_residual, res.distance)
        if res.distance > tol:
            failures.append(
                {
                    "input": {"pair": j, "seed": seed},
                    "residual": res.distance,
                }
            )
    details = {"pairs": pairs, "seed": seed, "tol": tol}
    return CertReport("convex", pairs, tuple(failures), max_residual, details)


def scale_offdiag(a: HermitianTuple, eps: float) -> HermitianTuple:
    """Multiply all off-diagonal entries by ``eps``; diagonals stay exact."""
    if not (0.0 <= eps <= 1.0):
        raise ValueError(f"scaling factor must lie in [0, 1], got {eps}")
    items = []
    for h in a.items:
        m = eps * h.mat
        np.fill_diagonal(m, h.mat.diagonal())
        items.append(HermitianMatrix(m))
    return HermitianTuple(tuple(items))


def check_ct_inclusion(
    spec: LinearMapSpec,
    a: HermitianTuple,
    eps: float,
    samples: int = 30,
    tol: float = 1e-4,
    seed: int = 0,
) -> CertReport:
    """Check that the off-diagonally contracted orbit image stays inside.

    Samples the image of the contracted tuple and asserts each point is
    reachable from the original tuple's orbit within ``tol``.
    """
    _check_tol(tol)
    if spec.l != 2:
        raise ValueError(
            f"contraction inclusion is stated for 2 output coordinates, got l={spec.l}"
        )
    scaled = scale_offdiag(a, eps)
    cloud = sample_orbit_cloud(spec, scaled, samples, seed)
    failures = []
    max_residual = 0.0
    for j in range(samples):
        res = orbit_distance(
            spec,
            a,
            cloud.points[j],
            DescentOptions(seed=derive_seed(seed, j), target_distance=0.5 * tol),
        )
        max_residual = max(max_residual, res.distance)
        if res.distance > tol:
            failures.append(
                {
                    "input": {"sample": j, "seed": seed, "eps": eps},
                    "residual": res.distance,
                }
            )
    details = {"samples": samples, "eps": eps, "seed": seed, "tol": tol}
    return CertReport(
        "inclusion", samples, tuple(failures), max_residual, details
    )


def counterexample_instance(
    n: int, m: int = 1, l: int = 4
) -> tuple[DiagonalTuple, DiagonalTuple, LinearMapSpec, PinchChain]:
    """The rank-one instance whose pinched point leaves the original range.

    ``D`` carries a single 1 in its first diagonal slot; the four map rows
    read off the full 2x2 corner of the first matrix (identity, both
    Pauli-like off-diagonal parts, and the diagonal difference).  The
    half-half pinching of the pair (1, 2) then maps to (1, 0, 0, 0),
    which stays a positive distance away from the unpinched image.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    if l != 4:
        raise ValueError(
            "the separation needs exactly 4 output coordinates "
            f"(maps carry at most 4), got l={l}"
        )
    p = np.zeros((n, n), dtype=complex)
    p[0, 0] = p[1, 1] = 1.0
    q = np.zeros((n, n), dtype=complex)
    q[0, 1] = 1.0j
    q[1, 0] = -1.0j
    r = np.zeros((n, n), dtype=complex)
    r[0, 0] = 1.0
    r[1, 1] = -1.0
    s = np.zeros((n, n), dtype=complex)
    s[0, 1] = s[1, 0] = 1.0
    zero = np.zeros((n, n), dtype=complex)
    coeffs = tuple(
        tuple(HermitianMatrix(row if i == 0 else zero) for i in range(m))
        for row in (p, q, r, s)
    )
    spec = LinearMapSpec(coeffs)
    vectors = np.zeros((m, n))
    vectors[0, 0] = 1.0
    d = DiagonalTuple(vectors)
    chain = PinchChain(n, (Pinching(1, 2, 0.5),))
    return d, apply_chain(chain, d), spec, chain


def _expected_separation(n: int) -> float:
    # the reachable first-coordinate mass s = |v_1|^2 + |v_2|^2 of a unit
    # vector v spans [0,1] only once a third slot exists; at n = 2 it is
    # pinned to 1 and the whole orbit image sits on {1} x S^2
    return 1.0 if n == 2 else math.sqrt(0.5)


def counterexample_report(
    n: int = 3,
    m: int = 1,
    l: int = 4,
    restarts: int = 32,
    tol: float = 1e-3,
    seed: int = 0,
) -> CertReport:
    """Certify both halves of the separation instance.

    The pinched tuple must reach (1, 0, 0, 0) essentially exactly, while
    the best-found distance from the unpinched orbit image must match the
    closed-form value (sqrt(1/2) for n >= 3; 1 at n = 2, where the image
    is a sphere at height one) within ``tol``.
    """
    _check_tol(tol)
    d, dhat, spec, chain = counterexample_instance(n, m, l)
    target = eval_map(spec, dhat.to_hermitian())
    opts = DescentOptions(restarts=restarts, seed=seed)
    hit = orbit_distance(spec, dhat.to_hermitian(), target, opts)
    sep = orbit_distance(spec, d.to_hermitian(), target, opts)
    expected = _expected_separation(n)

    failures = []
    if hit.distance > _PINCHED_MEMBERSHIP_TOL:
        failures.append(
            {
                "input": {"query": "pinched", "n": n, "m": m, "seed": seed},
                "residual": hit.distance,
            }
        )
    gap = abs(sep.distance - expected)
    if gap > tol:
        failures.append(
            {
                "input": {"query": "unpinched", "n": n, "m": m, "seed": seed},
                "residual": gap,
            }
        )
    details = {
        "target": [float(x) for x in target],
        "membership_distance": hit.distance,
        "separation_distance": sep.distance,
        "expected_separation": expected,
        "restarts": restarts,
        "n": n,
        "m": m,
        "l": l,
        "seed": seed,
        "tol": tol,
    }
    max_residual = max(hit.distance, gap)
    return CertReport(
        "counterexample", 2, tuple(failures), max_residual, details
    )
