"""Hermitian tuples, Haar sampling, and trace-linear maps into real space.

The objects here are the inputs of everything else in the package: an
m-tuple of n-by-n Hermitian matrices, a linear map ``L`` sending such a
tuple to a point of R^l via trace pairings, and the unitary conjugation
action whose image ``{L(U* A U) : U unitary}`` is the range under study.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CONSTRUCTION_TOL",
    "UNITARITY_TOL",
    "ALGEBRAIC_TOL",
    "MAX_MAP_OUTPUTS",
    "NumericalError",
    "HermitianMatrix",
    "HermitianTuple",
    "DiagonalTuple",
    "UnitaryMatrix",
    "LinearMapSpec",
    "hermitian_eig",
    "haar_unitary",
    "derive_seed",
    "conjugate_tuple",
    "eval_map",
    "star_center",
    "make_c_map",
    "expm_skew",
    "random_hermitian",
    "random_hermitian_tuple",
    "random_diagonal_tuple",
]

# Accuracy budget, shared by every module: construction-time checks are
# relative 1e-12 and algebraic identities must hold to 1e-10.
CONSTRUCTION_TOL = 1e-12
UNITARITY_TOL = 1e-10
ALGEBRAIC_TOL = 1e-10

# Maps with more than four output coordinates are rejected everywhere:
# the structural results need l <= 3, and l = 4 is admitted only so the
# non-inclusion counterexample can be stated.
MAX_MAP_OUTPUTS = 4

_MASK64 = (1 << 64) - 1


class NumericalError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


def _check_tol(tol: float) -> None:
    """Reject tolerances that would make any certificate vacuous."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")


def _check_fits(spec: LinearMapSpec, x) -> None:
    """Reject a tuple ``x`` whose (m, n) differs from the map's."""
    if spec.m != x.m or spec.n != x.n:
        raise ValueError(
            f"map expects (m={spec.m}, n={spec.n}), tuple has (m={x.m}, n={x.n})"
        )


def _square_complex(entries, what: str) -> np.ndarray:
    arr = np.asarray(entries, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """An n-by-n Hermitian matrix, re-symmetrized at construction.

    Construction rejects input whose Hermitian defect ``||A - A*||_F``
    exceeds ``CONSTRUCTION_TOL * max(1, ||A||_F)``; what is stored is the
    exact average ``(A + A*)/2``, so the diagonal is exactly real.
    """

    mat: np.ndarray

    def __post_init__(self):
        arr = _square_complex(self.mat, "HermitianMatrix")
        defect = np.linalg.norm(arr - arr.conj().T)
        scale = max(1.0, float(np.linalg.norm(arr)))
        if defect > CONSTRUCTION_TOL * scale:
            raise ValueError(
                f"matrix is not Hermitian: ||A - A*||_F = {defect:.3e} "
                f"exceeds {CONSTRUCTION_TOL:.0e} * max(1, ||A||_F)"
            )
        sym = (arr + arr.conj().T) / 2
        sym.setflags(write=False)
        object.__setattr__(self, "mat", sym)

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.mat).real)


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """An n-by-n unitary; ``||U*U - I||_F <= UNITARITY_TOL`` is enforced."""

    mat: np.ndarray

    def __post_init__(self):
        arr = _square_complex(self.mat, "UnitaryMatrix")
        defect = np.linalg.norm(arr.conj().T @ arr - np.eye(arr.shape[0]))
        if defect > UNITARITY_TOL:
            raise ValueError(
                f"matrix is not unitary: ||U*U - I||_F = {defect:.3e}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def identity(cls, n: int) -> "UnitaryMatrix":
        return cls(np.eye(n, dtype=np.complex128))


@dataclass(frozen=True, eq=False)
class HermitianTuple:
    """A non-empty tuple of Hermitian matrices sharing one dimension."""

    items: tuple[HermitianMatrix, ...]

    def __post_init__(self):
        items = tuple(self.items)
        if not items:
            raise ValueError("HermitianTuple must contain at least one matrix")
        if not all(isinstance(a, HermitianMatrix) for a in items):
            items = tuple(
                a if isinstance(a, HermitianMatrix) else HermitianMatrix(a)
                for a in items
            )
        n = items[0].n
        if any(a.n != n for a in items):
            raise ValueError("all matrices in a tuple must share one dimension")
        object.__setattr__(self, "items", items)

    @property
    def m(self) -> int:
        return len(self.items)

    @property
    def n(self) -> int:
        return self.items[0].n

    def stack(self) -> np.ndarray:
        """Entries as one (m, n, n) array."""
        return np.stack([a.mat for a in self.items])


@dataclass(frozen=True, eq=False)
class DiagonalTuple:
    """An m-tuple of real diagonal matrices, stored as an (m, n) array."""

    vectors: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.vectors, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"diagonal tuple needs shape (m, n), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("diagonal tuple contains non-finite entries")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)

    @property
    def m(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    def to_hermitian(self) -> HermitianTuple:
        return HermitianTuple(
            tuple(HermitianMatrix(np.diag(v).astype(np.complex128)) for v in self.vectors)
        )


@dataclass(frozen=True, eq=False)
class LinearMapSpec:
    """Trace-coefficient form of a linear map ``L : (H_n)^m -> R^l``.

    ``coeffs[k][i]`` is the Hermitian coefficient of the i-th input in
    the k-th output coordinate: ``L(X)_k = sum_i tr(coeffs[k][i] X_i)``.
    At most ``MAX_MAP_OUTPUTS`` output coordinates are supported.
    """

    coeffs: tuple[tuple[HermitianMatrix, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.coeffs)
        if not (1 <= len(rows) <= MAX_MAP_OUTPUTS):
            raise ValueError(
                f"map must have between 1 and {MAX_MAP_OUTPUTS} output "
                f"coordinates, got {len(rows)}"
            )
        m = len(rows[0])
        if m < 1 or any(len(row) != m for row in rows):
            raise ValueError("coefficient grid must be rectangular and non-empty")
        rows = tuple(
            tuple(
                a if isinstance(a, HermitianMatrix) else HermitianMatrix(a)
                for a in row
            )
            for row in rows
        )
        n = rows[0][0].n
        if any(a.n != n for row in rows for a in row):
            raise ValueError("all coefficient matrices must share one dimension")
        object.__setattr__(self, "coeffs", rows)

    @property
    def l(self) -> int:
        return len(self.coeffs)

    @property
    def m(self) -> int:
        return len(self.coeffs[0])

    @property
    def n(self) -> int:
        return self.coeffs[0][0].n

    def stack(self) -> np.ndarray:
        """Coefficients as one (l, m, n, n) array."""
        return np.stack([np.stack([a.mat for a in row]) for row in self.coeffs])


def hermitian_eig(a: HermitianMatrix) -> tuple[np.ndarray, UnitaryMatrix]:
    """Eigenvalues (ascending) and an orthonormal eigenbasis of ``a``.

    The reconstruction residual ``||A V - V diag(w)||_F`` is verified to
    stay below ``ALGEBRAIC_TOL * max(1, ||A||_F)``.
    """
    try:
        w, v = np.linalg.eigh(a.mat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    residual = np.linalg.norm(a.mat @ v - v * w)
    bound = ALGEBRAIC_TOL * max(1.0, float(np.linalg.norm(a.mat)))
    if residual > bound:
        raise NumericalError(
            f"eigendecomposition residual {residual:.3e} exceeds {bound:.3e}"
        )
    return w, UnitaryMatrix(v)


def _philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


def derive_seed(seed: int, index: int) -> int:
    """Deterministic 64-bit child seed for stream ``index`` of ``seed``."""
    x = (int(seed) + 0x9E3779B97F4A7C15 * (int(index) + 1)) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def haar_unitary(n: int, seed: int) -> UnitaryMatrix:
    """A Haar-distributed n-by-n unitary, deterministic in ``(n, seed)``.

    A Ginibre matrix of i.i.d. standard complex normals is drawn from a
    counter-based generator keyed by ``seed`` and orthonormalized; column
    phases are fixed so the triangular QR factor has positive diagonal,
    which makes the resulting distribution exactly Haar.
    """
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    rng = _philox(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    phases = np.where(np.abs(d) > 0, d / np.where(np.abs(d) > 0, np.abs(d), 1.0), 1.0)
    return UnitaryMatrix(q * phases)


def conjugate_tuple(a: HermitianTuple, u: UnitaryMatrix) -> HermitianTuple:
    """The conjugated tuple ``(U* A_1 U, ..., U* A_m U)``."""
    if a.n != u.n:
        raise ValueError(f"dimension mismatch: tuple has n={a.n}, unitary n={u.n}")
    uh = u.mat.conj().T
    return HermitianTuple(
        tuple(HermitianMatrix(uh @ item.mat @ u.mat) for item in a.items)
    )


def eval_map(spec: LinearMapSpec, x: HermitianTuple) -> np.ndarray:
    """Evaluate ``L(X) in R^l`` via trace pairings.

    The imaginary part of every trace must vanish to ``ALGEBRAIC_TOL``
    (it does for Hermitian inputs); it is then discarded.
    """
    _check_fits(spec, x)
    return _pairing(spec.stack(), x.stack())


def _pairing(cs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """``eval_map`` on raw stacks: coefficients (l, m, n, n), tuple (m, n, n)."""
    traces = np.einsum("kiab,iba->k", cs, xs)
    drift = float(np.abs(traces.imag).max())
    if drift > ALGEBRAIC_TOL:
        raise NumericalError(
            f"trace pairing has imaginary drift {drift:.3e}; inputs are not Hermitian"
        )
    return traces.real.copy()


def star_center(spec: LinearMapSpec, a: HermitianTuple) -> np.ndarray:
    """The image of the normalized-trace tuple ``((tr A_i / n) I)_i``.

    This point is fixed by every unitary conjugation, which is what makes
    it the natural candidate center of the range.
    """
    _check_fits(spec, a)
    gammas = np.array([item.trace() / a.n for item in a.items])
    row_traces = np.einsum("kiaa->ki", spec.stack()).real
    return row_traces @ gammas


def make_c_map(c: HermitianMatrix, m: int) -> LinearMapSpec:
    """The diagonal map ``X -> (tr(C X_1), ..., tr(C X_m))`` with l = m."""
    if not (1 <= m <= MAX_MAP_OUTPUTS):
        raise ValueError(
            f"a diagonal C-map needs 1 <= m <= {MAX_MAP_OUTPUTS}, got {m}"
        )
    zero = HermitianMatrix(np.zeros((c.n, c.n), dtype=np.complex128))
    rows = tuple(
        tuple(c if i == k else zero for i in range(m)) for k in range(m)
    )
    return LinearMapSpec(rows)


def expm_skew(k: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """``exp(scale * K)`` for skew-Hermitian ``K`` via a Hermitian eigenproblem.

    Exactly unitary up to roundoff, unlike generic Pade-based routines.
    """
    h = (k - k.conj().T) / 2j  # Hermitian generator: K = i H
    h = (h + h.conj().T) / 2
    w, q = np.linalg.eigh(h)
    return (q * np.exp(1j * scale * w)) @ q.conj().T


def random_hermitian(n: int, seed: int) -> HermitianMatrix:
    """A random Hermitian matrix with Gaussian entries (GUE-like scaling)."""
    rng = _philox(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianMatrix((g + g.conj().T) / 2)


def random_hermitian_tuple(n: int, m: int, seed: int) -> HermitianTuple:
    return HermitianTuple(
        tuple(random_hermitian(n, derive_seed(seed, i)) for i in range(m))
    )


def random_diagonal_tuple(n: int, m: int, seed: int) -> DiagonalTuple:
    rng = _philox(seed)
    return DiagonalTuple(rng.standard_normal((m, n)))
