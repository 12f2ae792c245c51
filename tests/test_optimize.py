"""Descent-based membership, gradients, and support probes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lrange import (
    DescentOptions,
    HermitianMatrix,
    HermitianTuple,
    LinearMapSpec,
    UnitaryMatrix,
    conjugate_tuple,
    derive_seed,
    eval_map,
    expm_skew,
    gradient,
    haar_unitary,
    hermitian_eig,
    make_c_map,
    orbit_distance,
    random_hermitian,
    random_hermitian_tuple,
    star_center,
    support_value,
)

from conftest import rand_map

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def objective(spec, a, y, u_mat):
    diff = eval_map(spec, conjugate_tuple(a, UnitaryMatrix(u_mat))) - y
    return float(diff @ diff)


# ----------------------------------------------------------------- distance


def test_distance_to_own_orbit_point_is_zero_at_start():
    a = random_hermitian_tuple(3, 2, seed=1)
    spec = rand_map(2, 2, 3, seed=2)
    res = orbit_distance(spec, a, eval_map(spec, a))
    assert res.distance <= 1e-12
    assert res.iterations == 0
    assert res.is_member(1e-6)


def test_distance_result_is_consistent_with_its_unitary():
    a = random_hermitian_tuple(3, 2, seed=3)
    spec = rand_map(2, 2, 3, seed=4)
    y = eval_map(spec, conjugate_tuple(a, haar_unitary(3, seed=5)))
    res = orbit_distance(spec, a, y, DescentOptions(restarts=4, seed=1))
    recomputed = np.linalg.norm(eval_map(spec, conjugate_tuple(a, res.ubest)) - y)
    assert res.distance == pytest.approx(float(recomputed), abs=1e-12)
    assert res.restarts_used <= 4
    u = res.ubest.mat
    assert np.linalg.norm(u.conj().T @ u - np.eye(3)) <= 1e-9


def test_trace_center_is_reachable_for_two_outputs():
    a = random_hermitian_tuple(3, 3, seed=6)
    spec = rand_map(2, 3, 3, seed=7)
    res = orbit_distance(spec, a, star_center(spec, a))
    assert res.distance <= 1e-6


def test_distance_is_stable_under_precomposed_conjugation():
    a = random_hermitian_tuple(3, 2, seed=8)
    spec = rand_map(2, 2, 3, seed=9)
    y = eval_map(spec, conjugate_tuple(a, haar_unitary(3, seed=10)))
    d_plain = orbit_distance(spec, a, y).distance
    rotated = conjugate_tuple(a, haar_unitary(3, seed=11))
    d_rotated = orbit_distance(spec, rotated, y).distance
    assert abs(d_plain - d_rotated) <= 1e-6


def test_target_distance_short_circuits_restarts():
    a = random_hermitian_tuple(3, 2, seed=12)
    spec = rand_map(2, 2, 3, seed=13)
    res = orbit_distance(
        spec, a, eval_map(spec, a), DescentOptions(restarts=8, target_distance=1e-9)
    )
    assert res.restarts_used == 1


def test_distance_validates_shapes():
    a = random_hermitian_tuple(3, 2, seed=14)
    spec = rand_map(2, 2, 3, seed=15)
    with pytest.raises(ValueError):
        orbit_distance(spec, a, np.zeros(3))
    with pytest.raises(ValueError):
        orbit_distance(rand_map(2, 3, 3, seed=16), a, np.zeros(2))


def test_descent_options_are_validated():
    with pytest.raises(ValueError):
        DescentOptions(restarts=0)
    with pytest.raises(ValueError):
        DescentOptions(step=-1.0)
    with pytest.raises(ValueError):
        DescentOptions(max_iter=-1)


@pytest.mark.parametrize(
    "knob, value",
    [
        ("target_distance", np.nan),
        ("target_distance", -1.0),
        ("target_distance", np.inf),
        ("step", np.nan),
        ("step", np.inf),
        ("grad_tol", np.nan),
        ("grad_tol", np.inf),
    ],
)
def test_descent_options_reject_dishonest_knobs(knob, value):
    """A NaN target distance would silently switch off the early stop."""
    assert DescentOptions(target_distance=0.0).target_distance == 0.0
    with pytest.raises(ValueError):
        DescentOptions(**{knob: value})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_targets_and_directions_are_rejected(bad):
    a = random_hermitian_tuple(3, 2, seed=14)
    spec = rand_map(2, 2, 3, seed=15)
    vec = np.array([bad, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        orbit_distance(spec, a, vec)
    with pytest.raises(ValueError, match="non-finite"):
        gradient(spec, a, UnitaryMatrix.identity(3), vec)
    with pytest.raises(ValueError, match="non-finite"):
        support_value(spec, a, vec)


# ----------------------------------------------------------------- gradient


def test_gradient_vanishes_at_zero_residual():
    a = random_hermitian_tuple(3, 2, seed=17)
    spec = rand_map(3, 2, 3, seed=18)
    u = haar_unitary(3, seed=19)
    y = eval_map(spec, conjugate_tuple(a, u))
    g = gradient(spec, a, u, y)
    assert np.linalg.norm(g) <= 1e-10


def test_gradient_vanishes_for_commuting_family():
    diag_a = HermitianTuple(
        (HermitianMatrix(np.diag([1.0, 2.0, 3.0])), HermitianMatrix(np.diag([0.0, -1.0, 4.0])))
    )
    rows = [
        [np.diag([1.0, 0.0, 0.0]), np.diag([0.5, 0.5, 0.0])],
        [np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 2.0])],
    ]
    g = gradient(LinearMapSpec(rows), diag_a, UnitaryMatrix.identity(3), np.array([5.0, -1.0]))
    assert np.linalg.norm(g) == 0.0


@given(seeds)
def test_gradient_is_skew_hermitian(seed):
    a = random_hermitian_tuple(3, 2, derive_seed(seed, 0))
    spec = rand_map(3, 2, 3, derive_seed(seed, 1))
    u = haar_unitary(3, derive_seed(seed, 2))
    g = gradient(spec, a, u, np.zeros(3))
    assert np.linalg.norm(g + g.conj().T) <= 1e-12


def test_gradient_matches_finite_differences():
    """Oracle: forward differences along 10 random skew directions."""
    rng = np.random.default_rng(20)
    a = random_hermitian_tuple(3, 2, seed=21)
    spec = rand_map(3, 2, 3, seed=22)
    u = haar_unitary(3, seed=23)
    y = eval_map(spec, a) + np.array([0.7, -0.3, 0.4])
    g = gradient(spec, a, u, y)
    eps = 1e-6
    base = objective(spec, a, y, u.mat)
    for _ in range(10):
        raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        k = raw - raw.conj().T
        k /= np.linalg.norm(k)
        bumped = objective(spec, a, y, u.mat @ expm_skew(k, eps))
        fd = (bumped - base) / eps
        pairing = float(np.trace(g.conj().T @ k).real)
        assert abs(fd - pairing) <= 1e-5 * max(1.0, abs(pairing))


# ------------------------------------------------------------------ support


def test_support_projector_against_largest_eigenvalue():
    spec = make_c_map(HermitianMatrix(np.diag([1.0, 0.0])), m=1)
    a = HermitianTuple((HermitianMatrix(np.diag([2.0, 1.0])),))
    val = support_value(spec, a, np.array([1.0]))
    assert val == pytest.approx(2.0, abs=1e-8)


def test_support_single_matrix_matches_sorted_eigenvalue_oracle():
    """Oracle: max_U tr(B U*AU) pairs both spectra in ascending order."""
    spec = rand_map(3, 1, 4, seed=24)
    a = HermitianTuple((random_hermitian(4, seed=25),))
    rng = np.random.default_rng(26)
    for _ in range(4):
        w = rng.normal(size=3)
        w /= np.linalg.norm(w)
        b = sum(w[k] * spec.coeffs[k][0].mat for k in range(3))
        lam_b, _ = hermitian_eig(HermitianMatrix(b))
        lam_a, _ = hermitian_eig(a.items[0])
        oracle = float(lam_b @ lam_a)
        val = support_value(spec, a, w, DescentOptions(restarts=8, seed=3))
        assert abs(val - oracle) <= 1e-6


def test_support_joint_numerical_range_matches_lambda_max():
    """Oracle: the support of the joint numerical range in direction w is
    the top eigenvalue of the w-weighted sum."""
    a = random_hermitian_tuple(3, 3, seed=27)
    spec = make_c_map(HermitianMatrix(np.diag([1.0, 0.0, 0.0])), m=3)
    rng = np.random.default_rng(28)
    for _ in range(4):
        w = rng.normal(size=3)
        w /= np.linalg.norm(w)
        weighted = sum(w[k] * a.items[k].mat for k in range(3))
        oracle = float(np.linalg.eigvalsh(weighted)[-1])
        val = support_value(spec, a, w, DescentOptions(restarts=8, seed=4))
        assert abs(val - oracle) <= 1e-8


def test_support_of_scalar_tuple_is_center_projection():
    a = HermitianTuple(
        (HermitianMatrix(2.0 * np.eye(3)), HermitianMatrix(-0.5 * np.eye(3)))
    )
    spec = rand_map(2, 2, 3, seed=29)
    w = np.array([0.6, 0.8])
    val = support_value(spec, a, w)
    assert val == pytest.approx(float(w @ star_center(spec, a)), abs=1e-9)


def test_support_requires_unit_direction():
    a = random_hermitian_tuple(3, 1, seed=30)
    spec = rand_map(2, 1, 3, seed=31)
    with pytest.raises(ValueError):
        support_value(spec, a, np.array([1.0, 1.0]))
