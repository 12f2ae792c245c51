"""Descent-based membership and support queries on unitary orbits.

Nothing here proves nonmembership: the orbit objective is nonconvex, so
``orbit_distance`` reports the best distance found over seeded restarts
and leaves the interpretation to the caller.  Support probing shares the
same engine with the sign flipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    HermitianTuple,
    LinearMapSpec,
    UnitaryMatrix,
    _check_fits,
    _check_tol,
    derive_seed,
    expm_skew,
    haar_unitary,
)

__all__ = [
    "DescentOptions",
    "MembershipResult",
    "gradient",
    "orbit_distance",
    "support_value",
]

_MAX_HALVINGS = 30
_REORTH_EVERY = 50


@dataclass(frozen=True)
class DescentOptions:
    """Knobs for the Riemannian descent; defaults are desk-scale choices."""

    restarts: int = 8
    max_iter: int = 2000
    step: float = 0.1
    grad_tol: float = 1e-10
    seed: int = 0
    target_distance: float | None = None

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        # every comparison with NaN is False, so NaN fails each range check
        td = 0.0 if self.target_distance is None else self.target_distance
        ok = 0 < self.step < np.inf and 0 <= self.grad_tol < np.inf and 0 <= td < np.inf
        if self.max_iter < 0 or not ok:
            raise ValueError(f"bad descent options: {self}")


@dataclass(frozen=True, eq=False)
class MembershipResult:
    """Best orbit point found for a membership query."""

    ubest: UnitaryMatrix
    distance: float
    iterations: int
    restarts_used: int

    def is_member(self, tol: float = 1e-6) -> bool:
        _check_tol(tol)
        return self.distance <= tol


def _check_vector(x, l: int, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (l,):
        raise ValueError(f"{name} must have shape ({l},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


def _conj_stack(a_stack: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.einsum("ba,ibc,cd->iad", u.conj(), a_stack, u)


def _residual_grad(cs, xs, y):
    """Objective value and descent direction for F = ||eval - y||^2."""
    r = 2.0 * (np.einsum("kiab,iba->k", cs, xs).real - y)
    lhs = np.einsum("k,iab,kibc->ac", r, xs, cs)
    rhs = np.einsum("k,kiab,ibc->ac", r, cs, xs)
    g = lhs - rhs
    return 0.25 * float(r @ r), (g - g.conj().T) / 2


def gradient(
    spec: LinearMapSpec, a: HermitianTuple, u: UnitaryMatrix, y: np.ndarray
) -> np.ndarray:
    """Riemannian gradient direction of ``||eval(L, U*AU) - y||^2``.

    The returned matrix is skew-Hermitian; moving along ``U exp(-eta G)``
    decreases the objective to first order.
    """
    y = _check_vector(y, spec.l, "target")
    xs = _conj_stack(a.stack(), u.mat)
    _, g = _residual_grad(spec.stack(), xs, y)
    return g


def _descend(u0, a_stack, fg, opts, early=None):
    """Backtracking descent from one start; returns (u, f, iterations)."""
    u = np.array(u0)
    xs = _conj_stack(a_stack, u)
    f, g = fg(xs)
    step = opts.step
    it = 0
    accepted = 0
    while it < opts.max_iter:
        if early is not None and f <= early:
            break
        if float(np.linalg.norm(g)) <= opts.grad_tol:
            break
        eta = step
        improved = False
        for _ in range(_MAX_HALVINGS + 1):
            u_try = u @ expm_skew(g, -eta)
            xs_try = _conj_stack(a_stack, u_try)
            f_try, g_try = fg(xs_try)
            if f_try < f:
                improved = True
                break
            eta *= 0.5
        if not improved:
            break
        it += 1
        u, f, g = u_try, f_try, g_try
        step = min(2.0 * eta, 1.0)
        accepted += 1
        if accepted % _REORTH_EVERY == 0:
            w_svd, _, vh = np.linalg.svd(u)
            u = w_svd @ vh
            xs = _conj_stack(a_stack, u)
            f, g = fg(xs)
    return u, f, it


def _starts(n: int, restarts: int, seed: int):
    yield UnitaryMatrix.identity(n).mat
    for j in range(1, restarts):
        yield haar_unitary(n, derive_seed(seed, j)).mat


def orbit_distance(
    spec: LinearMapSpec,
    a: HermitianTuple,
    y: np.ndarray,
    opts: DescentOptions | None = None,
) -> MembershipResult:
    """Best-found distance from ``y`` to the orbit image, over restarts.

    Restart 0 starts at the identity, the rest at Haar unitaries with
    per-restart derived seeds; ties break toward the earlier restart.  A
    ``target_distance`` in the options stops the restart loop early once
    met, which the star-shapedness fallback relies on.
    """
    opts = opts or DescentOptions()
    _check_fits(spec, a)
    y = _check_vector(y, spec.l, "target")
    a_stack = a.stack()
    cs = spec.stack()

    def fg(xs):
        return _residual_grad(cs, xs, y)

    early = None if opts.target_distance is None else opts.target_distance**2
    best = None
    used = 0
    for u0 in _starts(a.n, opts.restarts, opts.seed):
        u, f, it = _descend(u0, a_stack, fg, opts, early=early)
        used += 1
        if best is None or f < best[1]:
            best = (u, f, it)
        if early is not None and best[1] <= early:
            break
    u, f, it = best
    return MembershipResult(
        UnitaryMatrix(u), float(np.sqrt(max(f, 0.0))), it, used
    )


def support_value(
    spec: LinearMapSpec,
    a: HermitianTuple,
    w: np.ndarray,
    opts: DescentOptions | None = None,
) -> float:
    """Ascent estimate of the support function ``max_U <w, eval(L, U*AU)>``.

    Reduces to maximizing ``sum_i tr(B_i U*A_i U)`` with
    ``B_i = sum_k w_k C[k][i]``, run as descent on the negated objective.
    """
    opts = opts or DescentOptions()
    w = _check_vector(w, spec.l, "direction")
    if abs(np.linalg.norm(w) - 1.0) > 1e-8:
        raise ValueError("direction must be a unit vector")
    _check_fits(spec, a)
    a_stack = a.stack()
    bs = np.einsum("k,kiab->iab", w, spec.stack())

    def fg(xs):
        s = float(np.einsum("iab,iba->", bs, xs).real)
        g = np.einsum("iab,ibc->ac", bs, xs) - np.einsum("iab,ibc->ac", xs, bs)
        return -s, (g - g.conj().T) / 2

    best = None
    for u0 in _starts(a.n, opts.restarts, opts.seed):
        _, f, _ = _descend(u0, a_stack, fg, opts)
        if best is None or f < best:
            best = f
    return -best
