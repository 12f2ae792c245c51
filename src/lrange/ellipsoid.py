"""Orbit slices: the ellipsoids traced by two-parameter rotations.

For a diagonal tuple ``D``, a unitary ``U`` and a map ``L`` with three
output coordinates, the slice ``{L((TU)* D (TU)) : T = T(theta, phi)}``
over the two-parameter family of block rotations ``T(theta, phi)`` is an
ellipsoid surface in R^3: ``point(theta, phi) = a + M omega(theta, phi)``
with ``omega`` on the unit sphere.  This module computes the parameters
``(a, b, c, M)``, classifies points against the slice, and constructs the
unitary that degenerates the slice to a planar ellipse — the two halves
of the continuity argument used by the witness pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    ALGEBRAIC_TOL,
    DiagonalTuple,
    HermitianMatrix,
    LinearMapSpec,
    NumericalError,
    UnitaryMatrix,
    _check_fits,
    _check_tol,
    hermitian_eig,
)

__all__ = [
    "EllipsoidParams",
    "MembershipVerdict",
    "DegenerateCertificate",
    "INSIDE",
    "ON_SURFACE",
    "OUTSIDE",
    "t_theta_phi",
    "slice_params",
    "slice_point",
    "omega_of_angles",
    "angles_of_omega",
    "slice_membership",
    "nearest_surface",
    "degenerate_unitary",
]

_RANK_CUTOFF = 1e-10  # relative singular-value cutoff for range decisions

INSIDE = "inside"
ON_SURFACE = "on_surface"
OUTSIDE = "outside"


@dataclass(frozen=True, eq=False)
class EllipsoidParams:
    """Slice parameters: center ``a``, axis data ``b``, ``c`` and generator ``M``.

    ``M`` has columns ``(b, Re c, -Im c)`` so that the slice is exactly
    ``{a + M omega : ||omega|| = 1}``.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    m_matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        a = np.array(self.a, dtype=np.float64).reshape(3)
        b = np.array(self.b, dtype=np.float64).reshape(3)
        c = np.array(self.c, dtype=np.complex128).reshape(3)
        m = np.stack([b, c.real, -c.imag], axis=1)
        for arr in (a, b, c, m):
            if not np.all(np.isfinite(arr.view(np.float64))):
                raise ValueError("ellipsoid parameters contain non-finite entries")
            arr.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "m_matrix", m)


@dataclass(frozen=True)
class MembershipVerdict:
    """Classification of a query point against a slice.

    Exactly one kind is reported: ``inside`` (strictly interior to the
    solid hull of a non-degenerate slice), ``on_surface`` (a unit-norm
    preimage exists within tolerance; ``theta``/``phi`` reproduce the
    point), or ``outside`` (``distance`` is the distance to the surface).
    """

    kind: str
    omega: np.ndarray | None = None
    theta: float | None = None
    phi: float | None = None
    distance: float | None = None


def t_theta_phi(theta: float, phi: float, n: int) -> UnitaryMatrix:
    """The block rotation acting on the first two coordinates.

    The leading 2x2 block is ``[[cos th, sin th e^{i phi}],
    [-sin th, cos th e^{i phi}]]``; the rest is the identity.
    """
    if n < 2:
        raise ValueError(f"block rotations need n >= 2, got n={n}")
    out = np.eye(n, dtype=np.complex128)
    ct, st = np.cos(theta), np.sin(theta)
    e = np.exp(1j * phi)
    out[0, 0] = ct
    out[0, 1] = st * e
    out[1, 0] = -st
    out[1, 1] = ct * e
    return UnitaryMatrix(out)


def _lift(spec: LinearMapSpec, d: DiagonalTuple) -> np.ndarray:
    """The map's coefficients for ``d``, zero-padded to three output rows.

    Slices are ellipsoids only for three output coordinates, so maps with
    fewer are padded with zero rows and maps with more are rejected.
    Returns the (3, m, n, n) coefficient array.
    """
    if spec.l > 3:
        raise ValueError(
            f"slices and witnesses handle at most 3 output coordinates, got "
            f"l={spec.l}; inclusion genuinely fails beyond that"
        )
    _check_fits(spec, d)
    cs = spec.stack()
    return np.concatenate([cs, np.zeros((3 - spec.l,) + cs.shape[1:], cs.dtype)])


def _conj_diag(us: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """``diag(U C U*)`` for every coefficient, batched over leading axes of ``us``.

    ``us`` has shape (..., n, n) and ``cs`` (l, m, n, n); the result has
    shape (..., l, m, n) and costs O(n^3) per coefficient.
    """
    return np.einsum("...ab,kibc,...ac->...kia", us, cs, us.conj()).real


def _image(cs: np.ndarray, vectors: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``L(U* D U)`` for the diagonal tuple with (m, n) ``vectors``.

    ``tr(C U* D U) = sum_a d_a (U C U*)_aa``, so only the diagonal of the
    conjugated coefficients is needed.
    """
    return np.einsum("ia,...kia->...k", vectors, _conj_diag(u, cs))


def _slice_geometry(
    vectors: np.ndarray, us: np.ndarray, cs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched (a, b, c, M) over a stack of unitaries ``us`` of shape (T, n, n).

    With ``G = U C U*``, ``a`` and ``b`` read only ``diag(G)`` and ``c``
    only ``G[1, 0]``; the dense ``G`` is never formed.
    """
    diag = _conj_diag(us, cs)
    diff = vectors[:, 0] - vectors[:, 1]
    b = 0.5 * np.einsum("i,tki->tk", diff, diag[..., 0] - diag[..., 1])
    a = np.einsum("ia,tkia->tk", vectors, diag) - b  # the point at theta = 0 is a + b
    c = np.einsum("i,tb,kibc,tc->tk", diff, us[:, 1], cs, us[:, 0].conj())
    m = np.stack([b, c.real, -c.imag], axis=2)
    return a, b, c, m


def _preimage(
    m: np.ndarray, r: np.ndarray, band: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Least-norm preimage of ``r`` under ``M``, batched over leading axes.

    Singular values at or below ``_RANK_CUTOFF`` times the largest count as
    zero.  Returns ``(omega, rho, residual, rank, qt, inside)``: the preimage,
    its norm, ``||M omega - r||``, the numerical rank, the right singular
    vectors as rows of ``qt``, and whether the point is strictly inside a
    non-degenerate slice (feasible within ``band``, full rank and
    ``rho < 1 - band``).
    """
    p, sig, qt = np.linalg.svd(m)
    keep = sig > _RANK_CUTOFF * sig[..., :1]
    s = np.einsum("...ji,...j->...i", p, r)
    z = np.where(keep, s / np.where(keep, sig, 1.0), 0.0)
    omega = np.einsum("...ji,...j->...i", qt, z)
    residual = np.linalg.norm(np.einsum("...ij,...j->...i", m, omega) - r, axis=-1)
    rho = np.linalg.norm(z, axis=-1)
    rank = keep.sum(axis=-1)
    inside = (residual <= band) & (rank == 3) & (rho < 1.0 - band)
    return omega, rho, residual, rank, qt, inside


def slice_params(d: DiagonalTuple, u: UnitaryMatrix, spec: LinearMapSpec) -> EllipsoidParams:
    """Ellipsoid parameters of the slice of ``D`` at ``U`` under ``L``.

    ``a`` collects the rotation-invariant part, ``b`` the cos(2 theta)
    amplitude and ``c`` the complex sin(2 theta) amplitude; all come from
    the conjugated coefficients ``G = U C U*``.
    """
    cs = _lift(spec, d)
    if u.n != d.n:
        raise ValueError(f"unitary has n={u.n}, tuple has n={d.n}")
    if d.n < 2:
        raise ValueError("slices need n >= 2")
    a, b, c, _ = _slice_geometry(d.vectors, u.mat[None], cs)
    return EllipsoidParams(a[0], b[0], c[0])


def omega_of_angles(theta: float, phi: float) -> np.ndarray:
    """Unit sphere parametrization matching ``slice_point``."""
    s2 = np.sin(2.0 * theta)
    return np.array([np.cos(2.0 * theta), np.cos(phi) * s2, np.sin(phi) * s2])


def angles_of_omega(omega: np.ndarray) -> tuple[float, float]:
    """Angles with ``omega_of_angles(theta, phi) == omega`` for unit input."""
    omega = np.asarray(omega, dtype=np.float64).reshape(3)
    planar = float(np.hypot(omega[1], omega[2]))
    theta = 0.5 * np.arctan2(planar, omega[0])
    phi = float(np.arctan2(omega[2], omega[1])) if planar > 1e-14 else 0.0
    return float(theta), phi


def slice_point(params: EllipsoidParams, theta: float, phi: float) -> np.ndarray:
    """The slice point ``a + b cos(2 th) + Re(c e^{i phi}) sin(2 th)``."""
    return (
        params.a
        + params.b * np.cos(2.0 * theta)
        + (params.c * np.exp(1j * phi)).real * np.sin(2.0 * theta)
    )


def nearest_surface(params: EllipsoidParams, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Best unit-norm preimage: minimizes ``||a + M omega - y||`` over the sphere.

    With ``M = P diag(sig) Q^T`` and ``s = P^T (y - a)``, the minimizer has
    weights ``z = sig s / (sig^2 - lam)``, where the multiplier ``lam`` solves
    the secular equation ``||z|| = 1`` below ``min sig^2``; it is bisected
    until the midpoint equals an end of the bracket.  The weights on the
    smallest singular directions are then taken from the unit-norm deficit
    of the others when that is the more accurate value: in the hard case
    (the bracket never left ``min sig^2``, so the untied weights fit in the
    sphere) and in the near-hard case, where the multiplier sits so close
    to ``min sig^2`` that one ulp of it is a large relative error.
    """
    y = np.asarray(y, dtype=np.float64).reshape(3)
    m = params.m_matrix
    p, sig, qt = np.linalg.svd(m)
    s = p.T @ (y - params.a)
    prod = sig * s
    sig2 = sig**2
    floor = sig2[-1]
    tie = np.isclose(sig2, floor, rtol=1e-12, atol=0.0)

    lo, hi = floor - float(np.linalg.norm(prod)) - 1.0, floor
    lam = 0.5 * (lo + hi)
    for _ in range(300):
        z = prod / (sig2 - lam)
        if z @ z > 1.0:
            hi = lam
        else:
            lo = lam
        lam = 0.5 * (lo + hi)
        if lam <= lo or lam >= hi:
            break
    z = prod / (sig2 - lo)
    deficit = np.sqrt(max(0.0, 1.0 - float(z[~tie] @ z[~tie])))
    if hi == floor or floor - lo < deficit * floor:
        along = prod[tie] if prod[tie].any() else np.eye(int(tie.sum()))[0]
        z[tie] = deficit * along / np.linalg.norm(along)
    norm = float(np.linalg.norm(z))
    z = z / norm if norm > 0.0 else np.array([1.0, 0.0, 0.0])
    omega = qt.T @ z
    distance = float(np.linalg.norm(m @ omega - (y - params.a)))
    return omega, distance


def slice_membership(
    params: EllipsoidParams, y: np.ndarray, tol: float
) -> MembershipVerdict:
    """Classify ``y`` against the slice with tolerance band ``tol``.

    The least-norm preimage ``omega`` of ``y - a`` under ``M`` decides:
    infeasible (residual above ``tol``) or over-long (``||omega|| > 1+tol``)
    means outside, with the exact surface distance attached; a unit-norm
    preimage within the band means on the surface, with angles recovered;
    strictly short preimages are interior for full-rank ``M`` and are
    padded to the surface by a null direction when ``M`` is rank-deficient
    (a degenerate slice fills its hull, so such points lie on it).
    """
    _check_tol(tol)
    y = np.asarray(y, dtype=np.float64).reshape(3)
    if not np.all(np.isfinite(y)):
        raise ValueError("query point contains non-finite entries")
    omega, rho, residual, rank, qt, inside = _preimage(
        params.m_matrix, y - params.a, tol
    )
    if inside:
        return MembershipVerdict(INSIDE, omega=omega)

    if residual > tol or rho > 1.0 + tol:
        _, distance = nearest_surface(params, y)
        feasible_omega = omega if residual <= tol else None
        return MembershipVerdict(OUTSIDE, omega=feasible_omega, distance=distance)

    if rho >= 1.0 - tol:
        unit = omega / rho if rho > 0 else np.array([1.0, 0.0, 0.0])
    else:
        # degenerate slice: pad with a null direction up to unit norm
        unit = omega + np.sqrt(max(0.0, 1.0 - rho * rho)) * qt[rank]
        nrm = float(np.linalg.norm(unit))
        if nrm > 0:
            unit = unit / nrm

    theta, phi = angles_of_omega(unit)
    return MembershipVerdict(ON_SURFACE, omega=unit, theta=theta, phi=phi)


@dataclass(frozen=True, eq=False)
class DegenerateCertificate:
    """Output of the degeneration construction.

    ``v`` flattens the slice: the leading 2x2 block of ``V P' V*`` equals
    ``alpha I_2``, so the first output coordinate of the slice at ``V``
    is constant.
    """

    v: UnitaryMatrix
    alpha: float
    pprime: HermitianMatrix


def degenerate_unitary(d: DiagonalTuple, spec: LinearMapSpec) -> DegenerateCertificate:
    """A unitary at which the slice degenerates in its first coordinate.

    With ``P' = sum_i (d_1^(i) - d_2^(i)) C[1][i]``, choose the three
    smallest eigenpairs ``(lam_j, x_j)`` of ``P'``; the rows ``u* = x_2*``
    and ``v* = (cos t x_1 + sin t x_3)*`` with ``sin^2 t = (lam_2 - lam_1)
    / (lam_3 - lam_1)`` give a unitary whose leading block of ``V P' V*``
    is the scalar ``lam_2 I_2``, killing both the cos(2 theta) and the
    sin(2 theta) amplitude of the first coordinate.
    """
    cs = _lift(spec, d)
    n = d.n
    if n < 3:
        raise ValueError(f"degeneration needs n >= 3, got n={n}")
    weights = d.vectors[:, 0] - d.vectors[:, 1]
    pprime_mat = np.einsum("i,iab->ab", weights, cs[0])
    pprime = HermitianMatrix(pprime_mat)
    if float(np.linalg.norm(pprime.mat)) == 0.0:
        return DegenerateCertificate(UnitaryMatrix.identity(n), 0.0, pprime)
    w, x = hermitian_eig(pprime)
    lam1, lam2, lam3 = (float(w[j]) for j in range(3))
    x1, x2, x3 = x.mat[:, 0], x.mat[:, 1], x.mat[:, 2]
    span = lam3 - lam1
    if span <= ALGEBRAIC_TOL * max(1.0, float(np.abs(w).max())):
        sin_sq = 0.0
    else:
        sin_sq = min(1.0, max(0.0, (lam2 - lam1) / span))
    u_row = x2
    v_row = np.sqrt(1.0 - sin_sq) * x1 + np.sqrt(sin_sq) * x3
    null_basis = np.linalg.qr(np.stack([u_row, v_row]).T, mode="complete")[0][:, 2:]
    v_mat = np.vstack([u_row.conj()[None], v_row.conj()[None], null_basis.conj().T])
    v = UnitaryMatrix(v_mat)
    block = v_mat @ pprime.mat @ v_mat.conj().T
    drift = float(np.abs(block[:2, :2] - lam2 * np.eye(2)).max())
    bound = ALGEBRAIC_TOL * max(1.0, float(np.linalg.norm(pprime.mat)))
    if drift > bound:
        raise NumericalError(
            f"degeneration block drift {drift:.3e} exceeds {bound:.3e}"
        )
    return DegenerateCertificate(v, lam2, pprime)
