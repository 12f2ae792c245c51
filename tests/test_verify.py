"""End-to-end certification reports: clouds, star/convexity checks, separation."""

import numpy as np
import pytest

from lrange import (
    CertReport,
    DiagonalTuple,
    HermitianMatrix,
    HermitianTuple,
    MembershipResult,
    PinchChain,
    Pinching,
    PointCloud,
    ScalingTarget,
    UnitaryMatrix,
    apply_chain,
    chain_witness,
    check_convex,
    check_ct_inclusion,
    check_star_shaped,
    conjugate_tuple,
    counterexample_instance,
    counterexample_report,
    derive_seed,
    eval_map,
    haar_unitary,
    make_c_map,
    random_chain,
    random_diagonal_tuple,
    random_hermitian_tuple,
    sample_orbit_cloud,
    scale_offdiag,
    single_pinch_witness,
    slice_membership,
    slice_params,
    star_center,
    star_point_witness,
    star_scaling_chain,
    synth_scaling,
)

from conftest import rand_map


# ------------------------------------------------------------------- clouds


def test_cloud_scalar_tuple_sits_at_the_center():
    a = HermitianTuple((HermitianMatrix(3.0 * np.eye(3)), HermitianMatrix(-np.eye(3))))
    spec = rand_map(2, 2, 3, seed=1)
    cloud = sample_orbit_cloud(spec, a, 20, seed=2)
    center = star_center(spec, a)
    np.testing.assert_allclose(cloud.points, np.tile(center, (20, 1)), atol=1e-10)


def test_cloud_is_reproducible():
    a = random_hermitian_tuple(3, 2, seed=3)
    spec = rand_map(2, 2, 3, seed=4)
    c1 = sample_orbit_cloud(spec, a, 50, seed=5)
    c2 = sample_orbit_cloud(spec, a, 50, seed=5)
    np.testing.assert_array_equal(c1.points, c2.points)
    assert c1.l == 2


@pytest.mark.parametrize("n, m, l", [(3, 2, 2), (5, 1, 4), (8, 3, 3)])
def test_cloud_points_are_the_map_at_each_seeded_unitary(n, m, l):
    a = random_hermitian_tuple(n, m, seed=40 + n)
    spec = rand_map(l, m, n, seed=50 + n)
    cloud = sample_orbit_cloud(spec, a, 12, seed=60 + n)
    for j, point in enumerate(cloud.points):
        u = haar_unitary(n, derive_seed(60 + n, j))
        np.testing.assert_allclose(point, eval_map(spec, conjugate_tuple(a, u)), rtol=0, atol=1e-12)


def test_cloud_of_rank_one_projector_fills_the_unit_interval():
    spec = make_c_map(HermitianMatrix(np.diag([1.0, 0.0])), m=1)
    a = HermitianTuple((HermitianMatrix(np.diag([1.0, 0.0])),))
    cloud = sample_orbit_cloud(spec, a, 2000, seed=6)
    xs = cloud.points[:, 0]
    assert np.all(xs >= -1e-12)
    assert np.all(xs <= 1.0 + 1e-12)
    assert xs.max() >= 0.99


def test_cloud_respects_affine_covariance():
    a = random_hermitian_tuple(3, 2, seed=7)
    spec = rand_map(2, 2, 3, seed=8)
    alpha, beta = 1.7, -0.4
    shifted = HermitianTuple(
        tuple(HermitianMatrix(alpha * h.mat + beta * np.eye(3)) for h in a.items)
    )
    eye = HermitianTuple(tuple(HermitianMatrix(np.eye(3)) for _ in range(2)))
    base = sample_orbit_cloud(spec, a, 25, seed=9)
    moved = sample_orbit_cloud(spec, shifted, 25, seed=9)
    expected = alpha * base.points + beta * eval_map(spec, eye)
    np.testing.assert_allclose(moved.points, expected, atol=1e-9)


def test_neighbouring_seeds_give_different_clouds():
    a = random_hermitian_tuple(3, 2, seed=7)
    spec = rand_map(2, 2, 3, seed=8)
    zero = sample_orbit_cloud(spec, a, 8, seed=0).points
    one = sample_orbit_cloud(spec, a, 8, seed=1).points
    assert not np.allclose(np.sort(zero, axis=0), np.sort(one, axis=0))


def test_cloud_validates_inputs():
    a = random_hermitian_tuple(3, 2, seed=10)
    with pytest.raises(ValueError):
        sample_orbit_cloud(rand_map(2, 2, 3, seed=11), a, 0)
    with pytest.raises(ValueError):
        sample_orbit_cloud(rand_map(2, 2, 4, seed=12), a, 5)
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 2)), seed=0, n_samples=4)


def test_pinched_cloud_points_admit_chain_witnesses():
    d = random_diagonal_tuple(3, 2, seed=13)
    spec = rand_map(3, 2, 3, seed=14)
    chain = random_chain(3, 2, seed=15)
    dhat = apply_chain(chain, d)
    cloud = sample_orbit_cloud(spec, dhat.to_hermitian(), 3, seed=16)
    for j in range(3):
        u = haar_unitary(3, derive_seed(16, j))
        w = chain_witness(d, spec, chain, u=u, tol=1e-4)
        assert w.residual <= 1e-3
        # the chain witness target is exactly the recorded cloud point
        np.testing.assert_allclose(
            eval_map(spec, conjugate_tuple(dhat.to_hermitian(), u)),
            cloud.points[j],
            atol=1e-12,
        )


# ------------------------------------------------------------------ reports


def test_report_verdict_tracks_failures():
    ok = CertReport("star", 5, (), 1e-9, {})
    bad = CertReport("star", 5, ({"input": {}, "residual": 1.0},), 1.0, {})
    assert ok.verdict == "pass" and ok.passed
    assert bad.verdict == "fail" and not bad.passed


def test_star_check_scalar_tuple_passes_trivially():
    d = DiagonalTuple(np.array([[1.0, 1.0, 1.0]]))
    spec = rand_map(3, 1, 3, seed=17)
    report = check_star_shaped(spec, d, samples=2, alphas=[0.25, 0.75], seed=18)
    assert report.passed
    assert report.max_residual <= 1e-9


def test_star_check_certifies_random_diagonal_tuple():
    d = random_diagonal_tuple(3, 3, seed=19)
    spec = rand_map(3, 3, 3, seed=20)
    report = check_star_shaped(spec, d, samples=2, alphas=[0.2, 0.5, 0.8], seed=21)
    assert report.passed, report.failures
    assert report.checked == 6
    assert report.max_residual <= 1e-3
    assert report.details["max_synth_error"] >= 0.0


def test_star_check_two_level_convexity_fallback():
    d = DiagonalTuple(np.array([[1.0, -1.0]]))
    spec = make_c_map(HermitianMatrix(np.diag([1.0, 0.0])), m=1)
    report = check_star_shaped(spec, d, samples=2, alphas=[0.3, 0.7], seed=22)
    assert report.passed, report.failures


def test_star_check_rejects_four_outputs():
    with pytest.raises(ValueError):
        check_star_shaped(rand_map(4, 1, 3, seed=23), random_diagonal_tuple(3, 1, seed=24))


def test_convexity_check_on_single_point_range():
    a = HermitianTuple((HermitianMatrix(np.eye(3)),))
    report = check_convex(rand_map(2, 1, 3, seed=25), a, pairs=3, seed=26)
    assert report.passed
    assert report.max_residual <= 1e-10


def test_convexity_check_passes_in_a_convex_regime():
    # single-C maps with few inputs have convex images; midpoints must land
    a = random_hermitian_tuple(3, 2, seed=27)
    spec = make_c_map(HermitianMatrix(np.diag([1.0, 0.0, 0.0])), m=2)
    report = check_convex(spec, a, pairs=6, tol=1e-4, seed=28)
    assert report.passed, report.failures


def test_convexity_check_flags_the_four_output_instance():
    d, _, spec, _ = counterexample_instance(3)
    report = check_convex(spec, d.to_hermitian(), pairs=8, tol=1e-4, seed=29)
    assert not report.passed
    assert any(f["residual"] > 1e-3 for f in report.failures)


# -------------------------------------------------------------- contraction


def test_scale_offdiag_endpoints():
    a = random_hermitian_tuple(3, 2, seed=30)
    unchanged = scale_offdiag(a, 1.0)
    for x, y in zip(a.items, unchanged.items):
        np.testing.assert_array_equal(x.mat, y.mat)
    bare = scale_offdiag(a, 0.0)
    for x, y in zip(a.items, bare.items):
        np.testing.assert_array_equal(y.mat, np.diag(x.mat.diagonal()))
        np.testing.assert_array_equal(y.mat.diagonal(), x.mat.diagonal())


def test_scale_offdiag_preserves_traces_exactly():
    a = random_hermitian_tuple(4, 3, seed=31)
    for eps in (0.0, 0.3, 0.77, 1.0):
        scaled = scale_offdiag(a, eps)
        for x, y in zip(a.items, scaled.items):
            assert np.trace(y.mat) == np.trace(x.mat)
    with pytest.raises(ValueError):
        scale_offdiag(a, 1.5)


def test_contraction_inclusion_at_unit_scale_is_free():
    a = random_hermitian_tuple(3, 2, seed=32)
    spec = rand_map(2, 2, 3, seed=33)
    report = check_ct_inclusion(spec, a, eps=1.0, samples=4, seed=34)
    assert report.passed
    assert report.max_residual <= report.details["tol"]


def test_contraction_inclusion_at_half_scale():
    a = random_hermitian_tuple(3, 2, seed=35)
    spec = rand_map(2, 2, 3, seed=36)
    report = check_ct_inclusion(spec, a, eps=0.5, samples=6, tol=1e-4, seed=37)
    assert report.passed, report.failures


def test_contraction_inclusion_requires_two_outputs():
    a = random_hermitian_tuple(3, 2, seed=38)
    with pytest.raises(ValueError):
        check_ct_inclusion(rand_map(3, 2, 3, seed=39), a, eps=0.5)


# ------------------------------------------------------------- separation


def test_counterexample_instance_structure():
    d, dhat, spec, chain = counterexample_instance(4, m=2)
    np.testing.assert_array_equal(d.vectors, [[1, 0, 0, 0], [0, 0, 0, 0]])
    np.testing.assert_allclose(dhat.vectors, [[0.5, 0.5, 0, 0], [0, 0, 0, 0]], atol=0)
    assert spec.l == 4 and spec.m == 2 and spec.n == 4
    assert len(chain) == 1 and chain.steps[0].alpha == 0.5
    np.testing.assert_allclose(eval_map(spec, dhat.to_hermitian()), [1, 0, 0, 0], atol=1e-14)
    np.testing.assert_allclose(eval_map(spec, d.to_hermitian()), [1, 0, 1, 0], atol=1e-14)


def test_counterexample_instance_validates_parameters():
    with pytest.raises(ValueError):
        counterexample_instance(1)
    with pytest.raises(ValueError):
        counterexample_instance(3, m=0)
    with pytest.raises(ValueError):
        counterexample_instance(3, l=3)


def test_counterexample_report_certifies_the_separation():
    report = counterexample_report(n=3, restarts=8, tol=1e-3, seed=0)
    assert report.passed, report.failures
    assert report.details["membership_distance"] <= 1e-10
    assert report.details["separation_distance"] == pytest.approx(
        np.sqrt(0.5), abs=1e-3
    )


def test_counterexample_image_oracle():
    """Oracle: the unpinched image is {(s, omega) : ||omega|| = s, s in [0,1]},
    so the gap to (1,0,0,0) is min over s of sqrt((1-s)^2 + s^2) = sqrt(1/2)."""
    d, _, spec, _ = counterexample_instance(3)
    herm = d.to_hermitian()
    best = np.inf
    target = np.array([1.0, 0.0, 0.0, 0.0])
    for j in range(200):
        u = haar_unitary(3, seed=40_000 + j)
        pt = eval_map(spec, conjugate_tuple(herm, u))
        s = pt[0]
        radial = np.linalg.norm(pt[1:])
        assert radial == pytest.approx(s, abs=1e-10)
        best = min(best, float(np.linalg.norm(pt - target)))
    assert best >= np.sqrt(0.5) - 1e-9
    # dense sweep of the reachable profile confirms the analytic minimum
    ss = np.linspace(0.0, 1.0, 20001)
    profile = np.sqrt((1 - ss) ** 2 + ss**2)
    assert profile.min() == pytest.approx(np.sqrt(0.5), abs=1e-8)


# -------------------------------------------------------------- tolerances


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_public_functions_reject_dishonest_tolerances(tol):
    d = random_diagonal_tuple(3, 2, seed=1)
    spec = rand_map(3, 2, 3, seed=2)
    a = d.to_hermitian()
    u = haar_unitary(3, seed=3)
    calls = {
        "slice_membership": lambda: slice_membership(
            slice_params(d, u, spec), np.zeros(3), tol
        ),
        "synth_scaling": lambda: synth_scaling(ScalingTarget(3, 0.5), tol=tol),
        "single_pinch_witness": lambda: single_pinch_witness(
            d, spec, Pinching(1, 2, 0.5), tol=tol
        ),
        "chain_witness": lambda: chain_witness(d, spec, PinchChain(3, ()), tol=tol),
        "star_scaling_chain": lambda: star_scaling_chain(d, spec, 0.5, tol),
        "star_point_witness": lambda: star_point_witness(d, spec, u, 1.0, tol=tol),
        "check_star_shaped": lambda: check_star_shaped(spec, d, samples=1, tol=tol),
        "check_convex": lambda: check_convex(spec, a, pairs=1, tol=tol),
        "check_ct_inclusion": lambda: check_ct_inclusion(
            rand_map(2, 2, 3, seed=4), a, 0.5, samples=1, tol=tol
        ),
        "counterexample_report": lambda: counterexample_report(restarts=1, tol=tol),
        "is_member": lambda: MembershipResult(
            UnitaryMatrix.identity(3), 0.0, 0, 1
        ).is_member(tol),
    }
    for call in calls.values():
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            call()
