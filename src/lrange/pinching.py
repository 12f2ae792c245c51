"""Pinching matrices, pinch chains, and synthesis of scaling targets.

A pinching mixes two coordinates of a vector: the matrix ``P(s, t, alpha)``
is doubly stochastic, acts as ``alpha x + (1 - alpha) y`` on the pinched
pair, and fixes everything else.  Chains of pinchings applied to the
diagonal vectors of a tuple produce exactly the majorization-style
degradations whose images stay inside the original range.  The synthesis
routine approximates the scaling map ``S(alpha) = alpha I + (1 - alpha) J``
(``J`` = all-entries-1/n) by such a chain, which is the engine behind
star-shapedness certificates.
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

    ``error_trace`` records the best Frobenius distance to the target after
    every accepted improvement; it is non-increasing by construction.
    """

    chain: PinchChain
    achieved_error: float
    error_trace: tuple[float, ...]


_STALL_EPS = 1e-30
_DONE_EPS = 5e-15


def _all_pairs(n: int) -> list[tuple[int, int]]:
    return [(s, t) for s in range(n) for t in range(s + 1, n)]


def _product_rows(n: int, pairs: list[tuple[int, int]], betas: np.ndarray) -> np.ndarray:
    out = np.eye(n)
    for (s, t), b in zip(pairs, betas):
        rs = b * out[s] + (1.0 - b) * out[t]
        rt = b * out[t] + (1.0 - b) * out[s]
        out[s], out[t] = rs, rt
    return out


def _greedy_phase(s_mat: np.ndarray, tol: float, budget: int):
    """Steepest-improvement chain growth with the per-pair optimal weight.

    For a fixed pair the squared error is quadratic in the weight, so the
    inner minimization is closed-form; candidates are scanned in
    lexicographic pair order and ties keep the earliest pair.
    """
    n = s_mat.shape[0]
    pairs = _all_pairs(n)
    m = np.eye(n)
    err = float(np.linalg.norm(m - s_mat))
    trace = [err]
    applied: list[tuple[int, int]] = []
    betas: list[float] = []
    evals = 0
    while err > tol and evals < budget:
        best = None
        for s, t in pairs:
            evals += 1
            u = m[s] - m[t]
            uu = float(u @ u)
            if uu < _STALL_EPS:
                continue
            beta = 0.5 + float(u @ (s_mat[s] - s_mat[t])) / (2.0 * uu)
            beta = min(1.0, max(0.0, beta))
            rs = beta * m[s] + (1.0 - beta) * m[t]
            rt = beta * m[t] + (1.0 - beta) * m[s]
            delta = (
                -float(np.sum((m[s] - s_mat[s]) ** 2))
                - float(np.sum((m[t] - s_mat[t]) ** 2))
                + float(np.sum((rs - s_mat[s]) ** 2))
                + float(np.sum((rt - s_mat[t]) ** 2))
            )
            new_sq = err * err + delta
            if best is None or new_sq < best[0] - _STALL_EPS:
                best = (new_sq, s, t, beta, rs, rt)
        if best is None or best[0] >= err * err - _STALL_EPS:
            break  # stalled: no pair improves
        new_err = float(np.sqrt(max(best[0], 0.0)))
        if err - new_err < 1e-4 * err:
            break  # vanishing returns; hand over to re-optimization
        _, s, t, beta, rs, rt = best
        m = m.copy()
        m[s], m[t] = rs, rt
        applied.append((s, t))
        betas.append(beta)
        err = float(np.sqrt(max(best[0], 0.0)))
        trace.append(err)
    return applied, np.array(betas), err, trace, evals


def _gauss_newton(
    s_mat: np.ndarray,
    pairs: list[tuple[int, int]],
    betas: np.ndarray,
    budget: int,
    max_rounds: int = 200,
):
    """Projected Gauss-Newton on the weights of a fixed pair pattern."""
    n = s_mat.shape[0]
    k = len(pairs)
    betas = betas.copy()
    err = float(np.linalg.norm(_product_rows(n, pairs, betas) - s_mat))
    evals = 1
    for _ in range(max_rounds):
        if err <= _DONE_EPS or evals >= budget:
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
        evals += k
        step, *_ = np.linalg.lstsq(jac, -resid, rcond=None)
        lam = 1.0
        improved = False
        for _ in range(40):
            cand = np.clip(betas + lam * step, 0.0, 1.0)
            cand_err = float(np.linalg.norm(_product_rows(n, pairs, cand) - s_mat))
            evals += 1
            if cand_err < err - 1e-18:
                betas, err, improved = cand, cand_err, True
                break
            lam /= 2.0
        if not improved:
            break
    return betas, err, evals


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


def synth_scaling(
    target: ScalingTarget, tol: float = 1e-2, budget: int = 100_000
) -> SynthResult:
    """Synthesize a pinch chain whose product approximates ``S(alpha)``.

    Phase one grows a chain greedily (each step applies the single most
    error-reducing pinching; the per-pair weight subproblem is an exact
    quadratic minimization).  If the greedy chain stalls above ``tol``,
    phase two re-optimizes pinching weights by projected Gauss-Newton:
    first on the greedy pattern itself, then by continuation in the
    scaling weight over progressively deeper full-sweep patterns, warm
    starting each solve at the previous one.  A final fallback splits the
    target as ``S(alpha) = S(sqrt(alpha))^2`` and synthesizes the factors
    recursively (depth capped at 4).

    Returns the best chain found together with its exactly re-evaluated
    error and the non-increasing trace of accepted improvements.
    """
    _check_tol(tol)
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    return _synth_inner(target, tol, budget, depth=0)


def _synth_inner(target: ScalingTarget, tol: float, budget: int, depth: int) -> SynthResult:
    n = target.n
    s_mat = target.matrix()
    base_err = float(np.linalg.norm(np.eye(n) - s_mat))
    if n == 1 or base_err <= max(tol * 1e-6, _DONE_EPS):
        return SynthResult(PinchChain(n, ()), base_err, (base_err,))

    greedy_budget = min(budget, 600 * len(_all_pairs(n)))
    applied, betas, err, trace, used = _greedy_phase(s_mat, tol, greedy_budget)
    best_pairs, best_betas, best_err = applied, betas, err
    remaining = budget - used

    goal = max(tol * 1e-3, _DONE_EPS)
    if best_err > max(tol, _DONE_EPS) and remaining > 0:
        sweep = _all_pairs(n)
        if applied:
            # cheap polish: re-optimize the greedy weights plus one near-
            # identity sweep appended for slack
            pat = list(applied) + sweep
            init = np.concatenate([np.asarray(betas), np.full(len(sweep), 0.97)])
            cand_b, cand_e, used = _gauss_newton(s_mat, pat, init, remaining)
            remaining -= used
            if cand_e < best_err:
                best_pairs, best_betas, best_err = pat, cand_b, cand_e
                trace.append(best_err)
        # deterministic continuation: walk the scaling weight from near 1
        # (where the all-identity weights are exact) down to the target,
        # re-solving on progressively deeper sweep patterns; the depth that
        # suffices in practice grows roughly like n - 2
        start_depth = max(1, n - 2)
        for sweeps_count in (start_depth, start_depth + 1, start_depth + 2):
            if best_err <= goal or remaining <= 0:
                break
            pat = sweep * sweeps_count
            cur = np.ones(len(pat))
            for a in np.linspace(0.95, target.alpha, 10):
                step_mat = ScalingTarget(n, float(a)).matrix()
                cur, _, used = _gauss_newton(step_mat, pat, cur, remaining)
                remaining -= used
                if remaining <= 0:
                    break
            cand_e = float(np.linalg.norm(_product_rows(n, pat, cur) - s_mat))
            if cand_e < best_err:
                best_pairs, best_betas, best_err = pat, cur, cand_e
                trace.append(best_err)

    if best_err > tol and 0.0 < target.alpha < 1.0 and depth < 4 and remaining > 0:
        half = _synth_inner(
            ScalingTarget(n, float(np.sqrt(target.alpha))), tol / 2, remaining // 2, depth + 1
        )
        split_steps = half.chain.steps + half.chain.steps
        split_chain = PinchChain(n, split_steps)
        split_err = float(np.linalg.norm(chain_matrix(split_chain) - s_mat))
        if split_err < best_err:
            chain = split_chain
            final = float(np.linalg.norm(chain_matrix(chain) - s_mat))
            trace.append(final)
            return SynthResult(chain, final, tuple(trace))

    chain = _chain_from_applied(n, best_pairs, np.asarray(best_betas))
    final = float(np.linalg.norm(chain_matrix(chain) - s_mat))
    return SynthResult(chain, final, tuple(trace))
