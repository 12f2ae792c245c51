"""Pinching matrices, pinch chains, and synthesis of scaling targets.

A pinching mixes two coordinates of a vector: the matrix ``P(s, t, alpha)``
is doubly stochastic, acts as ``alpha x + (1 - alpha) y`` on the pinched
pair, and fixes everything else.  Chains of pinchings applied to the
diagonal vectors of a tuple produce exactly the majorization-style
degradations whose images stay inside the original range.  The synthesis
routine writes the scaling map ``S(alpha) = alpha I + (1 - alpha) J``
(``J`` = all-entries-1/n) as such a chain, which is the engine behind
star-shapedness certificates.  For ``n <= 6`` the chain is exact and has
``(n - 1)^2`` pinchings: the path ``(1,2), ..., (n-1,n)`` repeated
``n - 1`` times, the dimension-count minimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DiagonalTuple, _check_tol, _philox

__all__ = [
    "Pinching",
    "PinchChain",
    "ScalingTarget",
    "SynthResult",
    "pinch_matrix",
    "chain_matrix",
    "apply_chain",
    "random_chain",
    "synth_scaling",
]


@dataclass(frozen=True)
class Pinching:
    """One pinching step; indices are 1-based with ``s < t``."""

    s: int
    t: int
    alpha: float

    def __post_init__(self):
        if not (1 <= self.s < self.t):
            raise ValueError(f"need 1 <= s < t, got s={self.s}, t={self.t}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"pinching weight must lie in [0, 1], got {self.alpha}")


@dataclass(frozen=True, eq=False)
class PinchChain:
    """A finite chain of pinchings acting on R^n, applied right-to-left."""

    n: int
    steps: tuple[Pinching, ...]

    def __post_init__(self):
        steps = tuple(self.steps)
        if self.n < 1:
            raise ValueError(f"dimension must be positive, got {self.n}")
        for p in steps:
            if p.t > self.n:
                raise ValueError(f"pinching {p} exceeds dimension n={self.n}")
        object.__setattr__(self, "steps", steps)

    def __len__(self) -> int:
        return len(self.steps)


def pinch_matrix(p: Pinching, n: int) -> np.ndarray:
    """The n-by-n doubly stochastic matrix of a single pinching."""
    if p.t > n:
        raise ValueError(f"pinching {p} exceeds dimension n={n}")
    out = np.eye(n)
    s, t = p.s - 1, p.t - 1
    out[s, s] = out[t, t] = p.alpha
    out[s, t] = out[t, s] = 1.0 - p.alpha
    return out


def chain_matrix(chain: PinchChain) -> np.ndarray:
    """Dense product ``P_1 P_2 ... P_k`` of the chain's pinch matrices."""
    out = np.eye(chain.n)
    for p in chain.steps:
        out = out @ pinch_matrix(p, chain.n)
    return out


def apply_chain(chain: PinchChain, d: DiagonalTuple) -> DiagonalTuple:
    """Apply the chain to every diagonal vector: ``d -> P_1 ... P_k d``."""
    if chain.n != d.n:
        raise ValueError(f"chain acts on n={chain.n}, tuple has n={d.n}")
    vecs = d.vectors.T.copy()  # (n, m)
    for p in reversed(chain.steps):
        s, t = p.s - 1, p.t - 1
        rs = p.alpha * vecs[s] + (1.0 - p.alpha) * vecs[t]
        rt = p.alpha * vecs[t] + (1.0 - p.alpha) * vecs[s]
        vecs[s], vecs[t] = rs, rt
    return DiagonalTuple(vecs.T)


def random_chain(n: int, k: int, seed: int) -> PinchChain:
    """A chain of ``k`` uniformly random pinchings, deterministic in ``seed``."""
    if n < 2:
        raise ValueError(f"random pinchings need n >= 2, got n={n}")
    if k < 0:
        raise ValueError(f"chain length must be non-negative, got {k}")
    rng = _philox(seed)
    steps = []
    for _ in range(k):
        s = int(rng.integers(1, n))
        t = int(rng.integers(s + 1, n + 1))
        steps.append(Pinching(s, t, float(rng.uniform(0.0, 1.0))))
    return PinchChain(n, tuple(steps))


@dataclass(frozen=True)
class ScalingTarget:
    """The doubly stochastic scaling map ``S(alpha) = alpha I + (1-alpha) J``."""

    n: int
    alpha: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be positive, got {self.n}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"scaling weight must lie in [0, 1], got {self.alpha}")

    def matrix(self) -> np.ndarray:
        return self.alpha * np.eye(self.n) + (1.0 - self.alpha) * np.full(
            (self.n, self.n), 1.0 / self.n
        )


@dataclass(frozen=True)
class SynthResult:
    """Synthesis output: the chain, its exact error, and the error trace.

    ``error_trace`` records the Frobenius distance to the target after each
    candidate pattern that improved; it is non-increasing by construction.
    """

    chain: PinchChain
    achieved_error: float
    error_trace: tuple[float, ...]


_DONE_EPS = 5e-15


def _product_rows(n: int, pairs: list[tuple[int, int]], betas: np.ndarray) -> np.ndarray:
    out = np.eye(n)
    for (s, t), b in zip(pairs, betas):
        rs = b * out[s] + (1.0 - b) * out[t]
        rt = b * out[t] + (1.0 - b) * out[s]
        out[s], out[t] = rs, rt
    return out


def _gauss_newton(s_mat: np.ndarray, pairs: list[tuple[int, int]], betas: np.ndarray):
    """Projected Gauss-Newton on the weights of a fixed pair pattern."""
    n = s_mat.shape[0]
    k = len(pairs)
    betas = betas.copy()
    err = float(np.linalg.norm(_product_rows(n, pairs, betas) - s_mat))
    for _ in range(200):
        if err <= _DONE_EPS:
            break
        # prefix[j] = product of steps before j, suffix[j] = product after j
        prefix = [np.eye(n)]
        for (s, t), b in zip(pairs, betas):
            nxt = prefix[-1].copy()
            rs = b * nxt[s] + (1.0 - b) * nxt[t]
            rt = b * nxt[t] + (1.0 - b) * nxt[s]
            nxt[s], nxt[t] = rs, rt
            prefix.append(nxt)
        suffix = [np.eye(n)] * (k + 1)
        for j in range(k - 1, -1, -1):
            s, t = pairs[j]
            b = betas[j]
            p = np.eye(n)
            p[s, s] = p[t, t] = b
            p[s, t] = p[t, s] = 1.0 - b
            suffix[j] = suffix[j + 1] @ p
        resid = (prefix[k] - s_mat).ravel()
        jac = np.empty((n * n, k))
        for j in range(k):
            s, t = pairs[j]
            dp = np.zeros((n, n))
            dp[s, s] = dp[t, t] = 1.0
            dp[s, t] = dp[t, s] = -1.0
            jac[:, j] = (suffix[j + 1] @ dp @ prefix[j]).ravel()
        # cutting tiny singular values keeps near-null directions (near
        # alpha = 1 the Jacobian has one at 1e-13) from swamping the step
        step, *_ = np.linalg.lstsq(jac, -resid, rcond=1e-10)
        lam = 1.0
        improved = False
        for _ in range(40):
            cand = np.clip(betas + lam * step, 0.0, 1.0)
            cand_err = float(np.linalg.norm(_product_rows(n, pairs, cand) - s_mat))
            if cand_err < err - 1e-18:
                betas, err, improved = cand, cand_err, True
                break
            lam /= 2.0
        if not improved:
            break
    return betas, err


def _chain_from_applied(
    n: int, pairs: list[tuple[int, int]], betas: np.ndarray
) -> PinchChain:
    """Application-ordered (pair, weight) list -> right-to-left chain."""
    steps = []
    for (s, t), b in zip(pairs, betas):
        if b == 1.0:  # exact no-op, drop it
            continue
        steps.append(Pinching(s + 1, t + 1, float(b)))
    steps.reverse()
    return PinchChain(n, tuple(steps))


def synth_scaling(target: ScalingTarget, tol: float = 1e-2) -> SynthResult:
    """Synthesize a pinch chain whose product approximates ``S(alpha)``.

    Candidate pair patterns are tried in turn.  Each one is solved by
    projected Gauss-Newton on its weights while the scaling weight walks
    from 1, where the starting weights are exact, down to ``alpha`` in four
    warm-started solves.  The first candidate is the path
    ``(1,2), ..., (n-1,n)`` repeated ``n - 1`` times, started from the
    weights ``1, 0, ..., 0`` of each repeat (the repeats then compose an
    ``(n-1)``-cycle with itself ``n - 1`` times, the identity); for
    ``n <= 6`` it reaches ``S(alpha)`` exactly with ``(n - 1)^2`` pinchings.
    Only if it misses ``tol`` do all-pairs sweeps repeated ``n - 2``,
    ``n - 1`` and ``n`` times follow, started from all-ones weights.

    Returns the first candidate within ``tol``, else the best one, together
    with its exactly re-evaluated error and the error of each candidate
    that improved on the ones before it.
    """
    _check_tol(tol)
    n = target.n
    s_mat = target.matrix()
    base_err = float(np.linalg.norm(np.eye(n) - s_mat))
    if base_err <= max(tol * 1e-6, _DONE_EPS):
        return SynthResult(PinchChain(n, ()), base_err, (base_err,))

    path = [(j, j + 1) for j in range(n - 1)]
    cycle = np.zeros(n - 1)
    cycle[0] = 1.0
    sweep = [(s, t) for s in range(n) for t in range(s + 1, n)]
    candidates = [(path * (n - 1), np.tile(cycle, n - 1))] + [
        (sweep * r, np.ones(len(sweep) * r)) for r in range(max(1, n - 2), n + 1)
    ]
    best_err = np.inf
    trace = []
    for pairs, betas in candidates:
        for a in np.linspace(1.0, target.alpha, 5)[1:]:
            betas, err = _gauss_newton(ScalingTarget(n, float(a)).matrix(), pairs, betas)
        if err < best_err:
            best_pairs, best_betas, best_err = pairs, betas, err
            trace.append(err)
        if err <= tol:
            break

    chain = _chain_from_applied(n, best_pairs, best_betas)
    final = float(np.linalg.norm(chain_matrix(chain) - s_mat))
    return SynthResult(chain, final, tuple(trace))
