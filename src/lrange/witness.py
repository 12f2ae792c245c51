"""Constructive witnesses: unitaries that realize pinched targets.

Given a pinched diagonal tuple, the image point ``y = L(U* D_hat U)`` is
known to stay inside the range of the unpinched tuple.  The routines here
make that effective: they return a unitary ``u'`` with
``L(u'* D u') ~ y``, found by sliding along a geodesic from ``U`` to a
slice-degenerating unitary until the query point crosses the slice
surface, then reading the crossing angles off the ellipsoid
parametrization.  Chains of pinchings are handled inductively, and
star-shapedness reduces to a synthesized scaling chain on the traceless
part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ALGEBRAIC_TOL,
    DiagonalTuple,
    LinearMapSpec,
    NumericalError,
    UnitaryMatrix,
    _check_tol,
)
from .ellipsoid import (
    ON_SURFACE,
    OUTSIDE,
    EllipsoidParams,
    _image,
    _lift,
    _preimage,
    _slice_geometry,
    angles_of_omega,
    degenerate_unitary,
    nearest_surface,
    slice_membership,
    t_theta_phi,
)
from .pinching import PinchChain, Pinching, ScalingTarget, SynthResult, apply_chain, synth_scaling

__all__ = [
    "Witness",
    "PathSpec",
    "StarWitness",
    "WitnessError",
    "make_path",
    "single_pinch_witness",
    "chain_witness",
    "star_scaling_chain",
    "star_point_witness",
]

_GRID_POINTS = 200
_MAX_BISECT = 60
_SCAN_BAND = 1e-9


class WitnessError(RuntimeError):
    """The crossing search failed; diagnostics are carried in the message."""


@dataclass(frozen=True, eq=False)
class Witness:
    """A certified preimage: ``L(uprime* D uprime)`` hits the target.

    ``theta``, ``phi`` and ``t`` record where on the rotation family and
    along the degeneration path the crossing was found; ``residual`` is
    the re-evaluated distance to the target, never an estimate.
    """

    uprime: UnitaryMatrix
    theta: float
    phi: float
    t: float
    residual: float


@dataclass(frozen=True, eq=False)
class PathSpec:
    """The geodesic ``f(t) = U exp(t K)`` with ``K = log(U* V)`` principal.

    ``K = basis diag(i phases) basis*`` with ``basis`` orthonormal and the
    phases of ``U* V`` in (-pi, pi] (a phase within 1e-12 of -pi takes
    +pi), so path points cost two matrix products each.
    """

    start: UnitaryMatrix
    end: UnitaryMatrix
    phases: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        endpoint = self.at_raw(np.array([1.0]))[0]
        drift = float(np.linalg.norm(endpoint - self.end.mat))
        if drift > ALGEBRAIC_TOL:
            raise NumericalError(
                f"geodesic endpoint misses target by {drift:.3e}"
            )

    def at_raw(self, ts: np.ndarray) -> np.ndarray:
        """Path points at parameters ``ts`` as one (T, n, n) array."""
        rot = np.exp(1j * np.outer(ts, self.phases))
        return np.einsum(
            "ab,tb,cb->tac", self.start.mat @ self.basis, rot, self.basis.conj()
        )

    def at(self, t: float) -> UnitaryMatrix:
        return UnitaryMatrix(self.at_raw(np.array([float(t)]))[0])


def _principal_eig(w: UnitaryMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases in (-pi, pi] and an orthonormal eigenbasis of a unitary.

    The Cayley transform about the middle of the widest gap in the
    spectrum, rotated onto -1, is Hermitian and well conditioned, so
    ``eigh`` gives orthonormal eigenvectors even for clustered or repeated
    phases.  A phase within 1e-12 of -pi is moved to +pi.
    """
    angles = np.sort(np.angle(np.linalg.eigvals(w.mat)))
    gaps = np.diff(angles, append=angles[0] + 2.0 * np.pi)
    j = int(np.argmax(gaps))
    shift = np.pi - (angles[j] + gaps[j] / 2)
    rotated = np.exp(1j * shift) * w.mat
    eye = np.eye(w.n)
    h = 1j * np.linalg.solve(eye + rotated, eye - rotated)
    kappa, basis = np.linalg.eigh((h + h.conj().T) / 2)
    psi = np.mod(2.0 * np.arctan(kappa) - shift + np.pi, 2.0 * np.pi) - np.pi
    return np.where(psi <= -np.pi + 1e-12, psi + 2.0 * np.pi, psi), basis


def make_path(u: UnitaryMatrix, v: UnitaryMatrix) -> PathSpec:
    if u.n != v.n:
        raise ValueError(f"path endpoints disagree: n={u.n} vs n={v.n}")
    w = UnitaryMatrix(u.mat.conj().T @ v.mat)
    return PathSpec(u, v, *_principal_eig(w))


def _reduction_permutation(s: int, t: int, n: int) -> np.ndarray:
    """Source indices: position 1 reads slot ``s``, position 2 slot ``t``."""
    rest = [j for j in range(n) if j not in (s - 1, t - 1)]
    return np.array([s - 1, t - 1] + rest)


def _pinch12_witness(
    d: DiagonalTuple,
    spec: LinearMapSpec,
    cs: np.ndarray,
    u: UnitaryMatrix,
    y: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, float, float, float]:
    """Crossing search for a pinching already sitting at slots (1, 2).

    ``cs`` holds the map's coefficients lifted to three rows.  Each path
    parameter's slice geometry is computed once: a midpoint that is not
    interior becomes the upper bracket with its least-norm preimage, whose
    radial projection ``omega / rho`` is the candidate witness; its
    distance vanishes at the crossing, where ``rho = 1``.  Returns the
    witness unitary as a raw array.
    """
    n = d.n
    member_band = max(1e-9, min(1e-6, tol))
    goal = max(1e-12, 1e-3 * tol)

    start = _slice_geometry(d.vectors, u.mat[None], cs)
    params = EllipsoidParams(start[0][0], start[1][0], start[2][0])
    verdict = slice_membership(params, y, member_band)
    if verdict.kind == OUTSIDE:
        raise WitnessError(
            "target lies outside the hull of the initial slice "
            f"(distance {verdict.distance:.3e}); the pinched point must sit "
            "inside, so the inputs are inconsistent"
        )
    if verdict.kind == ON_SURFACE:
        # the band bounds |rho - 1|, not the distance: check it before use
        omega, dist = nearest_surface(params, y)
        if dist <= tol:
            theta, phi = angles_of_omega(omega)
            return t_theta_phi(theta, phi, n).mat @ u.mat, theta, phi, 0.0

    # inside the slice's hull: slide toward the flattened slice
    cert = degenerate_unitary(d, spec)
    path = make_path(u, cert.v)
    ts = np.linspace(0.0, 1.0, _GRID_POINTS)
    grid = _slice_geometry(d.vectors, path.at_raw(ts[1:]), cs)
    a, b, c, m = (np.concatenate(pair) for pair in zip(start, grid))
    omega, rho, resid, _, _, inside = _preimage(m, y - a, _SCAN_BAND)
    exits = np.nonzero(~inside)[0]

    first = int(exits[0]) if exits.size else _GRID_POINTS - 1
    if first == 0:
        raise WitnessError(
            "slice membership flipped between verdict and scan at t=0; "
            f"rho={rho[0]:.6f}, residual={resid[0]:.3e}"
        )
    lo, hi = float(ts[first - 1]), float(ts[first])
    hi_at = (omega[first], rho[first], m[first], y - a[first])

    best = None  # (dist, t, omega)
    for _ in range(_MAX_BISECT):
        omega_h, rho_h, m_h, r_h = hi_at
        unit = omega_h / rho_h if rho_h > 0 else np.array([1.0, 0.0, 0.0])
        dist = float(np.linalg.norm(m_h @ unit - r_h))
        if best is None or dist < best[0]:
            best = (dist, hi, unit)
        if dist <= goal:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        a_m, _, _, m_m = (
            x[0] for x in _slice_geometry(d.vectors, path.at_raw(np.array([mid])), cs)
        )
        omega_m, rho_m, _, _, _, inside_m = _preimage(m_m, y - a_m, _SCAN_BAND)
        if inside_m:
            lo = mid
        else:
            hi, hi_at = mid, (omega_m, rho_m, m_m, y - a_m)

    # degenerate endpoint fallback: the flattened slice fills its hull
    omega, dist = nearest_surface(EllipsoidParams(a[-1], b[-1], c[-1]), y)
    if dist < best[0]:
        best = (dist, 1.0, omega)

    dist, t_star, omega = best
    if dist > tol:
        raise WitnessError(
            f"crossing search stalled: best surface distance {dist:.3e} at "
            f"t={t_star:.6f} exceeds tolerance {tol:.1e}"
        )
    theta, phi = angles_of_omega(omega)
    uprime = t_theta_phi(theta, phi, n).mat @ path.at_raw(np.array([t_star]))[0]
    return uprime, theta, phi, t_star


def single_pinch_witness(
    d: DiagonalTuple,
    spec: LinearMapSpec,
    pinch: Pinching,
    u: UnitaryMatrix | None = None,
    tol: float = 1e-6,
) -> Witness:
    """Witness for one pinching: ``L(uprime* D uprime) ~ L(U* D_hat U)``.

    The pinched pair is first permuted to slots (1, 2).  The target is an
    exact convex combination of the slice points at ``theta = 0`` and
    ``theta = pi/2``, so it lies in the hull of the slice at ``U``; the
    geodesic toward the degenerating unitary then must carry the slice
    surface through the target, and the crossing is located by a 200-point
    scan followed by bisection (at most 60 steps).
    """
    _check_tol(tol)
    n = d.n
    if n < 2:
        raise ValueError("witnesses need n >= 2")
    if spec.l == 3 and n < 3:
        raise ValueError("three output coordinates require n >= 3")
    cs = _lift(spec, d)
    if pinch.t > n:
        raise ValueError(f"pinching {pinch} exceeds dimension n={n}")
    if u is None:
        u = UnitaryMatrix.identity(n)
    if u.n != n:
        raise ValueError(f"unitary has n={u.n}, tuple has n={n}")

    y = _image(cs, apply_chain(PinchChain(n, (pinch,)), d).vectors, u.mat)

    sigma = _reduction_permutation(pinch.s, pinch.t, n)
    pi_mat = np.zeros((n, n))
    pi_mat[np.arange(n), sigma] = 1.0
    d_red = DiagonalTuple(d.vectors[:, sigma])
    u_red = UnitaryMatrix(pi_mat @ u.mat)

    uprime_red, theta, phi, t_star = _pinch12_witness(d_red, spec, cs, u_red, y, tol)
    uprime = UnitaryMatrix(pi_mat.T @ uprime_red)

    residual = float(np.linalg.norm(_image(cs, d.vectors, uprime.mat) - y))
    if residual > tol:
        raise WitnessError(
            f"witness re-evaluation residual {residual:.3e} exceeds tol {tol:.1e}"
        )
    return Witness(uprime, theta, phi, t_star, residual)


def chain_witness(
    d: DiagonalTuple,
    spec: LinearMapSpec,
    chain: PinchChain,
    u: UnitaryMatrix | None = None,
    tol: float = 1e-6,
) -> Witness:
    """Witness for a whole chain, by induction over its pinchings.

    The fixed target is ``y0 = L(U* D_hat U)`` for the fully pinched
    tuple.  Pinchings are peeled off front to back: each single-pinch
    witness re-expresses the running target over a one-step-less-pinched
    tuple, accumulating at most ``len(chain) * tol`` of residual.
    """
    _check_tol(tol)
    n = d.n
    if chain.n != n:
        raise ValueError(f"chain acts on n={chain.n}, tuple has n={n}")
    if u is None:
        u = UnitaryMatrix.identity(n)
    if u.n != n:
        raise ValueError(f"unitary has n={u.n}, tuple has n={n}")
    cs = _lift(spec, d)
    # partials[j] = steps j.. applied to d, built from the back one pinch at a time
    partials = [d]
    for pinch in reversed(chain.steps):
        partials.append(apply_chain(PinchChain(n, (pinch,)), partials[-1]))
    partials.reverse()
    y0 = _image(cs, partials[0].vectors, u.mat)
    current = u
    theta = phi = t_star = 0.0
    for j, pinch in enumerate(chain.steps):
        w = single_pinch_witness(partials[j + 1], spec, pinch, current, tol)
        current, theta, phi, t_star = w.uprime, w.theta, w.phi, w.t
    residual = float(np.linalg.norm(_image(cs, d.vectors, current.mat) - y0))
    return Witness(current, theta, phi, t_star, residual)


@dataclass(frozen=True, eq=False)
class StarWitness:
    """A star-shapedness certificate for one ray point.

    ``witness.residual`` is the full re-evaluated error against the convex
    combination ``alpha L(U* D U) + (1 - alpha) center``; the synthesis
    error of the scaling chain is surfaced separately since it bounds the
    systematic part of that residual.
    """

    witness: Witness
    target: np.ndarray
    synth_error: float
    chain_length: int


def star_scaling_chain(
    d: DiagonalTuple, spec: LinearMapSpec, alpha: float, tol: float
) -> SynthResult:
    """Pinching chain approximating multiplication by ``alpha``.

    The synthesis tolerance is budgeted so that the chain's systematic
    error, amplified by the map norm and the traceless data scale, stays
    well under the witness tolerance.  Chains depend only on ``(n,
    alpha)`` up to that budget, so callers sweeping many unitaries should
    synthesize once and pass the result through.
    """
    _check_tol(tol)
    means = d.vectors.mean(axis=1)
    scale = float(np.abs(d.vectors - means[:, None]).max())
    cs = _lift(spec, d)
    row_norms = np.linalg.norm(cs, axis=(2, 3)).sum(axis=1)
    l_scale = float(np.sqrt((row_norms**2).sum()))
    synth_tol = min(1e-2, tol / (4.0 * max(1.0, l_scale * scale * np.sqrt(d.m))))
    return synth_scaling(ScalingTarget(d.n, alpha), tol=max(synth_tol, 1e-13))


def star_point_witness(
    d: DiagonalTuple,
    spec: LinearMapSpec,
    u: UnitaryMatrix,
    alpha: float,
    tol: float = 1e-3,
    synth: SynthResult | None = None,
) -> StarWitness:
    """Witness that the ray point toward the trace center stays in range.

    The tuple is first reduced to its traceless part (the center shift
    commutes with conjugation); on traceless data the scaling map acts as
    plain multiplication by ``alpha``, so a synthesized scaling chain plus
    the inductive chain witness produces the certificate.  For ``n = 2``
    with at most two output coordinates the reduced range is an affine
    image of a single numerical range, hence convex, and a descent-based
    membership query replaces the chain construction.
    """
    _check_tol(tol)
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"ray parameter must lie in [0, 1], got {alpha}")
    n = d.n
    if spec.l == 3 and n < 3:
        raise ValueError("three output coordinates require n >= 3")
    cs = _lift(spec, d)
    if u.n != n:
        raise ValueError(f"unitary has n={u.n}, tuple has n={n}")
    means = d.vectors.mean(axis=1)
    orbit = _image(cs, d.vectors, u.mat)
    centre = _image(cs, np.repeat(means[:, None], n, axis=1), u.mat)
    target = alpha * orbit + (1.0 - alpha) * centre

    if alpha == 1.0:
        residual = float(np.linalg.norm(orbit - target))
        return StarWitness(Witness(u, 0.0, 0.0, 0.0, residual), target, 0.0, 0)

    if n == 2:
        from .optimize import DescentOptions, orbit_distance

        # here l <= 2, and the lifted rows of the target are exactly zero
        result = orbit_distance(
            spec,
            d.to_hermitian(),
            target[: spec.l],
            DescentOptions(target_distance=0.25 * tol),
        )
        return StarWitness(
            Witness(result.ubest, 0.0, 0.0, 0.0, result.distance), target, 0.0, 0
        )

    d0 = DiagonalTuple(d.vectors - means[:, None])
    if synth is None:
        synth = star_scaling_chain(d, spec, alpha, tol)
    chain = synth.chain
    step_tol = min(1e-6, tol / (2.0 * max(1, len(chain))))
    cw = chain_witness(d0, spec, chain, u, tol=max(step_tol, 1e-10))
    residual = float(np.linalg.norm(_image(cs, d.vectors, cw.uprime.mat) - target))
    return StarWitness(
        Witness(cw.uprime, cw.theta, cw.phi, cw.t, residual),
        target,
        synth.achieved_error,
        len(chain),
    )
