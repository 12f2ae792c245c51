"""Orbit slices: block rotations, ellipsoid parameters, membership, degeneration."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lrange import (
    INSIDE,
    ON_SURFACE,
    OUTSIDE,
    DiagonalTuple,
    EllipsoidParams,
    HermitianMatrix,
    LinearMapSpec,
    NumericalError,
    UnitaryMatrix,
    angles_of_omega,
    conjugate_tuple,
    degenerate_unitary,
    derive_seed,
    eval_map,
    haar_unitary,
    nearest_surface,
    omega_of_angles,
    random_diagonal_tuple,
    slice_membership,
    slice_params,
    slice_point,
    t_theta_phi,
)

from lrange import ellipsoid
from lrange.ellipsoid import _image, _lift, _preimage, _slice_geometry

from conftest import rand_map

unit_vectors = st.builds(
    lambda x, y, z: np.array([x, y, z]),
    *(st.floats(-1, 1) for _ in range(3)),
)


def fibonacci_sphere(count):
    """Roughly equidistributed unit vectors; the usual golden-angle spiral."""
    k = np.arange(count, dtype=np.float64)
    z = 1.0 - 2.0 * (k + 0.5) / count
    r = np.sqrt(1.0 - z * z)
    ang = np.pi * (1.0 + np.sqrt(5.0)) * k
    return np.stack([r * np.cos(ang), r * np.sin(ang), z], axis=1)


class TestBlockRotation:
    def test_zero_angles_give_identity(self):
        np.testing.assert_allclose(t_theta_phi(0.0, 0.0, 4).mat, np.eye(4), atol=1e-15)

    def test_quarter_turn_swaps_first_two_axes(self):
        expected = np.array(
            [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex
        )
        np.testing.assert_allclose(t_theta_phi(np.pi / 2, 0.0, 3).mat, expected, atol=1e-15)

    @given(st.floats(-10, 10), st.floats(-10, 10))
    def test_always_unitary(self, theta, phi):
        u = t_theta_phi(theta, phi, 3).mat
        assert np.linalg.norm(u.conj().T @ u - np.eye(3)) <= 1e-12

    def test_rejects_scalar_dimension(self):
        with pytest.raises(ValueError):
            t_theta_phi(0.1, 0.2, 1)


class TestSliceParams:
    def test_known_instance(self):
        # D = diag(1,-1,0) against the three standard 2x2 corner observables
        # gives the axis-aligned generator diag(1, 2, 2).
        d = DiagonalTuple(np.array([[1.0, -1.0, 0.0]]))
        e11 = np.zeros((3, 3))
        e11[0, 0] = 1.0
        sx = np.zeros((3, 3), dtype=complex)
        sx[0, 1] = sx[1, 0] = 1.0
        sy = np.zeros((3, 3), dtype=complex)
        sy[0, 1] = 1j
        sy[1, 0] = -1j
        spec = LinearMapSpec([[e11], [sx], [sy]])
        params = slice_params(d, UnitaryMatrix.identity(3), spec)
        np.testing.assert_allclose(params.a, [0.0, 0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(params.b, [1.0, 0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(params.c, [0.0, 2.0, -2.0j], atol=1e-14)
        np.testing.assert_allclose(params.m_matrix, np.diag([1.0, 2.0, 2.0]), atol=1e-14)

    def test_scalar_tuple_collapses_to_point(self):
        d = DiagonalTuple(np.array([[0.7, 0.7, 0.7], [-1.2, -1.2, -1.2]]))
        spec = rand_map(3, 2, 3, seed=13)
        params = slice_params(d, haar_unitary(3, seed=1), spec)
        np.testing.assert_allclose(params.b, np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(params.c, np.zeros(3), atol=1e-12)

    def test_matches_direct_orbit_evaluation(self):
        """Oracle: push T_{theta,phi} U through core and compare pointwise."""
        d = random_diagonal_tuple(4, 2, seed=2)
        spec = rand_map(3, 2, 4, seed=3)
        u = haar_unitary(4, seed=4)
        params = slice_params(d, u, spec)
        rng = np.random.default_rng(5)
        herm = d.to_hermitian()
        for theta, phi in rng.uniform(-np.pi, np.pi, size=(100, 2)):
            w = UnitaryMatrix(t_theta_phi(theta, phi, 4).mat @ u.mat)
            direct = eval_map(spec, conjugate_tuple(herm, w))
            np.testing.assert_allclose(slice_point(params, theta, phi), direct, atol=1e-10)

    def test_lifted_two_output_map_has_constant_third_coordinate(self):
        d = random_diagonal_tuple(3, 2, seed=6)
        spec = rand_map(2, 2, 3, seed=7)
        params = slice_params(d, haar_unitary(3, seed=8), spec)
        assert params.b[2] == 0.0
        assert params.c[2] == 0.0

    def test_lift_rejects_four_outputs(self):
        d = random_diagonal_tuple(3, 1, seed=9)
        with pytest.raises(ValueError, match="at most 3 output coordinates"):
            slice_params(d, haar_unitary(3, seed=9), rand_map(4, 1, 3, seed=9))

    def test_rejects_shape_mismatch(self):
        d = random_diagonal_tuple(3, 2, seed=10)
        with pytest.raises(ValueError):
            slice_params(d, haar_unitary(3, seed=0), rand_map(3, 3, 3, seed=11))
        with pytest.raises(ValueError):
            slice_params(d, haar_unitary(4, seed=0), rand_map(3, 2, 3, seed=11))


def dense_slice_geometry(vectors, us, cs):
    """Reference slice parameters from the full ``G = U C U*``, O(n^4) each."""
    g = np.einsum("tab,kibc,tdc->tkiad", us, cs, us.conj())
    d1, d2 = vectors[:, 0], vectors[:, 1]
    g00, g11 = g[:, :, :, 0, 0].real, g[:, :, :, 1, 1].real
    rest = np.einsum("tkijj->tkij", g[:, :, :, 2:, 2:]).real
    a = 0.5 * np.einsum("i,tki->tk", d1 + d2, g00 + g11)
    a = a + np.einsum("ij,tkij->tk", vectors[:, 2:], rest)
    b = 0.5 * np.einsum("i,tki->tk", d1 - d2, g00 - g11)
    c = np.einsum("i,tki->tk", d1 - d2, g[:, :, :, 1, 0])
    return a, b, c


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(2, 6),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 8),
)
def test_slice_kernel_matches_dense_reference(seed, n, m, l, batch):
    """``diag(U C U*)`` and ``G[1, 0]`` give the dense formula's slice, and
    ``_image`` is the map evaluated on the conjugated tuple."""
    d = random_diagonal_tuple(n, m, derive_seed(seed, 0))
    spec = rand_map(l, m, n, derive_seed(seed, 1))
    us = np.stack([haar_unitary(n, derive_seed(seed, 2 + t)).mat for t in range(batch)])
    cs = _lift(spec, d)
    assert cs.shape == (3, m, n, n)

    a, b, c, m_matrix = _slice_geometry(d.vectors, us, cs)
    for got, want in zip((a, b, c), dense_slice_geometry(d.vectors, us, cs)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
    np.testing.assert_array_equal(m_matrix, np.stack([b, c.real, -c.imag], axis=2))

    images = _image(cs, d.vectors, us)
    for t in range(batch):
        direct = eval_map(spec, conjugate_tuple(d.to_hermitian(), UnitaryMatrix(us[t])))
        want = np.concatenate([direct, np.zeros(3 - l)])
        np.testing.assert_allclose(images[t], want, rtol=0, atol=1e-12 * np.abs(want).max())
        np.testing.assert_allclose(
            _image(cs, d.vectors, us[t]), images[t], rtol=0, atol=1e-14 * np.abs(want).max()
        )


class TestParametrization:
    def test_theta_zero_hits_a_plus_b(self):
        params = EllipsoidParams([1.0, 2.0, 3.0], [0.5, 0.0, -0.5], [1.0, 2.0j, 0.0])
        for phi in (0.0, 0.9, -2.3):
            np.testing.assert_allclose(
                slice_point(params, 0.0, phi), params.a + params.b, atol=1e-15
            )

    def test_quarter_theta_hits_a_plus_re_c(self):
        params = EllipsoidParams([1.0, 2.0, 3.0], [0.5, 0.0, -0.5], [1.0, 2.0j, 0.0])
        np.testing.assert_allclose(
            slice_point(params, np.pi / 4, 0.0), params.a + params.c.real, atol=1e-15
        )

    def test_omega_form_agrees_on_grid(self):
        params = EllipsoidParams([0.1, -0.2, 0.3], [1.0, 0.5, 0.0], [0.3 + 1j, -2.0, 0.7j])
        thetas = np.linspace(0.0, np.pi, 20)
        phis = np.linspace(0.0, 2 * np.pi, 20)
        for theta in thetas:
            for phi in phis:
                via_m = params.a + params.m_matrix @ omega_of_angles(theta, phi)
                np.testing.assert_allclose(slice_point(params, theta, phi), via_m, atol=1e-12)

    @given(unit_vectors)
    def test_angle_recovery_round_trips(self, raw):
        nrm = np.linalg.norm(raw)
        assume(nrm > 1e-3)
        omega = raw / nrm
        theta, phi = angles_of_omega(omega)
        np.testing.assert_allclose(omega_of_angles(theta, phi), omega, atol=1e-12)
        assert 0.0 <= theta <= np.pi / 2 + 1e-12


class TestMembership:
    params = EllipsoidParams([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, -2.0j])

    def test_center_is_inside(self):
        verdict = slice_membership(self.params, np.zeros(3), tol=1e-9)
        assert verdict.kind == INSIDE
        np.testing.assert_allclose(verdict.omega, np.zeros(3), atol=1e-14)

    def test_axis_point_is_on_surface_at_theta_zero(self):
        verdict = slice_membership(self.params, np.array([1.0, 0.0, 0.0]), tol=1e-9)
        assert verdict.kind == ON_SURFACE
        assert verdict.theta == pytest.approx(0.0, abs=1e-12)

    def test_far_point_is_outside_with_exact_distance(self):
        verdict = slice_membership(self.params, np.array([0.0, 3.0, 0.0]), tol=1e-9)
        assert verdict.kind == OUTSIDE
        assert verdict.distance == pytest.approx(1.0, abs=1e-10)

    def test_verdicts_partition_random_queries(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            y = rng.normal(scale=1.5, size=3)
            verdict = slice_membership(self.params, y, tol=1e-9)
            assert verdict.kind in (INSIDE, ON_SURFACE, OUTSIDE)
            if verdict.kind == ON_SURFACE:
                back = slice_point(self.params, verdict.theta, verdict.phi)
                np.testing.assert_allclose(back, y, atol=1e-8)
            elif verdict.kind == OUTSIDE:
                assert verdict.distance > 0.0

    def test_rank_deficient_interior_point_reports_surface(self):
        # flat slice: the solid disc equals the surface, so interior points
        # of the disc still admit unit preimages via null-space padding
        flat = EllipsoidParams([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0])
        verdict = slice_membership(flat, np.array([0.2, 0.4, 0.0]), tol=1e-9)
        assert verdict.kind == ON_SURFACE
        back = slice_point(flat, verdict.theta, verdict.phi)
        np.testing.assert_allclose(back, [0.2, 0.4, 0.0], atol=1e-8)

    def test_nearest_surface_against_dense_sampling(self):
        """Oracle: brute-force minimum over a fine sphere mesh."""
        rng = np.random.default_rng(12)
        mesh = fibonacci_sphere(20000)
        for trial in range(5):
            params = EllipsoidParams(
                rng.normal(size=3),
                rng.normal(size=3),
                rng.normal(size=3) + 1j * rng.normal(size=3),
            )
            y = rng.normal(scale=2.0, size=3)
            omega, dist = nearest_surface(params, y)
            assert np.linalg.norm(omega) == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.norm(params.a + params.m_matrix @ omega - y) == pytest.approx(
                dist, abs=1e-10
            )
            sampled = np.linalg.norm(
                params.a + mesh @ params.m_matrix.T - y, axis=1
            ).min()
            assert dist <= sampled + 1e-9
            scale = max(1.0, np.linalg.norm(params.m_matrix, 2))
            assert sampled - dist <= 0.05 * scale


@pytest.mark.parametrize(
    "kind", ["rank3", "rank2", "sphere", "hard", "near_hard", "flat"]
)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(-13.0, -6.0))
def test_nearest_surface_is_a_constrained_minimum(kind, seed, log_tied):
    """Unit, stationary on the sphere, and no worse than a dense sample.

    ``hard`` puts ``y - a`` orthogonal to the smallest singular direction,
    as a rank-2 generator does for every target; ``near_hard`` gives it a
    tiny weight ``10**log_tied`` there.  Half of these two kinds tie the
    two smallest singular values.  ``flat`` has an exactly zero singular
    value and a target above the interior of the flat ellipse, so the
    distance is exactly its height.
    """
    rng = np.random.default_rng(seed)
    p, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    sig = np.sort(rng.uniform(0.2, 2.0, size=3))[::-1]
    if kind in ("rank2", "flat"):
        sig[2] = 0.0
    if kind == "sphere":
        sig[:] = sig[0]
    if kind in ("hard", "near_hard") and rng.random() < 0.5:
        sig[1] = sig[2]
    tied = sig == sig[2]
    s = rng.normal(size=3) * rng.choice([0.1, 0.5, 1.0, 3.0])
    if kind == "hard":
        s[tied] = 0.0
    if kind == "near_hard":
        s[tied] *= 10.0**log_tied / np.linalg.norm(s[tied])
    if kind == "flat":
        # exact axes, so the SVD sees the zero singular value exactly
        p, q = np.eye(3), np.eye(3)
        s[:2] *= rng.uniform(0.0, 0.99) / np.linalg.norm(s[:2] / sig[:2])
    m = p @ np.diag(sig) @ q.T
    a = rng.normal(size=3)
    r = p @ s
    params = EllipsoidParams(a, m[:, 0], m[:, 1] - 1j * m[:, 2])

    omega, dist = nearest_surface(params, a + r)
    assert np.linalg.norm(omega) == pytest.approx(1.0, abs=1e-12)
    assert dist == pytest.approx(np.linalg.norm(m @ omega - r), abs=1e-12)
    grad = m.T @ (m @ omega - r)
    tangential = np.linalg.norm(grad - omega * (omega @ grad))
    assert tangential <= 1e-12 * sig[0] * (sig[0] + np.linalg.norm(r))
    sampled = np.linalg.norm(fibonacci_sphere(20000) @ m.T - r, axis=1).min()
    assert dist <= sampled + 1e-9
    if kind == "flat":
        assert dist == pytest.approx(abs(s[2]), abs=1e-12)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([3, 2, 1]),
    st.sampled_from([1e-9, 1e-7, 1e-6]),
)
def test_batched_interior_mask_matches_slice_membership(seed, rank, band):
    """The batched interior test agrees with the per-slice verdict.

    Generators of rank 2 and 1 are exact products of thin factors, so their
    smallest singular values sit far below the rank cutoff; query points
    mix interior, near-surface, surface, exterior and off-range offsets.
    """
    rng = np.random.default_rng(seed)
    count = 16
    a = rng.normal(size=(count, 3))
    m = rng.normal(size=(count, 3, rank)) @ rng.normal(size=(count, rank, 3))
    w = rng.normal(size=(count, 3))
    radii = rng.choice([0.0, 0.3, 0.999, 1.0, 1.001, 2.0], size=count)
    w *= (radii / np.linalg.norm(w, axis=1))[:, None]
    offsets = rng.choice([0.0, 1e-3], size=count)[:, None] * rng.normal(size=(count, 3))
    y = a + np.einsum("tij,tj->ti", m, w) + offsets

    inside = _preimage(m, y - a, band)[-1]
    expected = [
        slice_membership(
            EllipsoidParams(a[t], m[t, :, 0], m[t, :, 1] - 1j * m[t, :, 2]), y[t], band
        ).kind
        == INSIDE
        for t in range(count)
    ]
    assert inside.tolist() == expected
    if rank < 3:
        assert not inside.any()


def test_membership_rejects_non_finite_query():
    params = EllipsoidParams([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, -2.0j])
    with pytest.raises(ValueError):
        slice_membership(params, np.array([0.0, np.nan, 0.0]), tol=1e-9)


class TestDegeneration:
    def test_three_level_spectrum_example(self):
        # P' = diag(6,2,4): middle eigenvalue 4 becomes the scalar block.
        d = DiagonalTuple(np.array([[1.0, 0.0, 0.0]]))
        rows = [[np.diag([6.0, 2.0, 4.0])], [np.eye(3)], [np.eye(3)]]
        cert = degenerate_unitary(d, LinearMapSpec(rows))
        assert cert.alpha == pytest.approx(4.0, abs=1e-12)
        block = cert.v.mat @ cert.pprime.mat @ cert.v.mat.conj().T
        np.testing.assert_allclose(block[:2, :2], 4.0 * np.eye(2), atol=1e-9)

    def test_zero_first_row_returns_identity(self):
        d = DiagonalTuple(np.array([[1.0, -1.0, 0.0]]))
        zero = np.zeros((3, 3))
        rows = [[zero], [np.eye(3)], [np.diag([1.0, 2.0, 3.0])]]
        cert = degenerate_unitary(d, LinearMapSpec(rows))
        assert cert.alpha == 0.0
        np.testing.assert_array_equal(cert.v.mat, np.eye(3))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_slice_at_certificate_is_flat(self, n):
        # at n = 3 the complement of the two leading rows is one column
        d = random_diagonal_tuple(n, 2, seed=21)
        spec = rand_map(3, 2, n, seed=22)
        cert = degenerate_unitary(d, spec)
        assert np.linalg.norm(cert.v.mat @ cert.v.mat.conj().T - np.eye(n)) <= 1e-12
        params = slice_params(d, cert.v, spec)
        assert abs(params.b[0]) <= 1e-9
        assert abs(params.c[0]) <= 1e-9
        thetas = np.linspace(0.0, np.pi, 30)
        phis = np.linspace(0.0, 2 * np.pi, 30)
        first = np.array(
            [slice_point(params, th, ph)[0] for th in thetas for ph in phis]
        )
        assert first.max() - first.min() <= 1e-8
        sig = np.linalg.svd(params.m_matrix, compute_uv=False)
        assert abs(np.linalg.det(params.m_matrix)) <= 1e-8 * max(sig[0], 1e-30) ** 3

    def test_block_drift_is_a_numerical_error(self, monkeypatch):
        real_eig = ellipsoid.hermitian_eig

        def shifted_eig(a):
            w, x = real_eig(a)
            w = w.copy()
            w[1] += 1.0
            return w, x

        monkeypatch.setattr(ellipsoid, "hermitian_eig", shifted_eig)
        with pytest.raises(NumericalError, match="block drift"):
            degenerate_unitary(random_diagonal_tuple(4, 2, seed=3), rand_map(3, 2, 4, seed=4))

    def test_rejects_two_level_systems(self):
        d = random_diagonal_tuple(2, 1, seed=23)
        with pytest.raises(ValueError):
            degenerate_unitary(d, rand_map(3, 1, 2, seed=24))
