"""Constructive inclusion certificates: paths, pinch witnesses, star rays."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from lrange import core as core_module
from lrange import ellipsoid as ellipsoid_module
from lrange import witness as witness_module
from lrange import (
    ALGEBRAIC_TOL,
    DiagonalTuple,
    HermitianMatrix,
    HermitianTuple,
    LinearMapSpec,
    PathSpec,
    PinchChain,
    Pinching,
    ScalingTarget,
    UnitaryMatrix,
    WitnessError,
    apply_chain,
    chain_witness,
    check_star_shaped,
    conjugate_tuple,
    degenerate_unitary,
    derive_seed,
    eval_map,
    haar_unitary,
    make_path,
    random_chain,
    random_diagonal_tuple,
    single_pinch_witness,
    slice_params,
    star_center,
    star_point_witness,
    star_scaling_chain,
    synth_scaling,
    t_theta_phi,
)

from conftest import rand_map

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def reevaluate(d, spec, u_prime, target):
    """The soundness oracle: push uprime back through the evaluation map."""
    return float(
        np.linalg.norm(eval_map(spec, conjugate_tuple(d.to_hermitian(), u_prime)) - target)
    )


# -------------------------------------------------------------------- paths


def test_path_endpoints():
    u = haar_unitary(3, seed=1)
    v = haar_unitary(3, seed=2)
    assert np.linalg.norm(make_path(u, v).at(0.0).mat - u.mat) <= 1e-10
    assert np.linalg.norm(make_path(u, v).at(1.0).mat - v.mat) <= 1e-10


def test_path_with_equal_endpoints_is_constant():
    u = haar_unitary(4, seed=3)
    for t in (0.0, 0.3, 0.77, 1.0):
        assert np.linalg.norm(make_path(u, u).at(t).mat - u.mat) <= 1e-12


@given(seeds, st.floats(0, 1))
def test_path_stays_unitary(seed, t):
    u = haar_unitary(3, derive_seed(seed, 0))
    v = haar_unitary(3, derive_seed(seed, 1))
    f = make_path(u, v).at(t).mat
    assert np.linalg.norm(f.conj().T @ f - np.eye(3)) <= 1e-10


def test_path_matches_scipy_geodesic():
    """Oracle: scipy's matrix log/exp give the same one-parameter subgroup."""
    u = haar_unitary(3, seed=4)
    v = haar_unitary(3, seed=5)
    k = scipy.linalg.logm(u.mat.conj().T @ v.mat)
    for t in (0.25, 0.5, 0.9):
        expected = u.mat @ scipy.linalg.expm(t * k)
        assert np.linalg.norm(make_path(u, v).at(t).mat - expected) <= 1e-8


def _principal_log(w):
    phases, basis = witness_module._principal_eig(w)
    return (basis * (1j * phases)) @ basis.conj().T


def test_principal_log_is_skew_and_exact():
    w = UnitaryMatrix(haar_unitary(4, seed=6).mat)
    k = _principal_log(w)
    assert np.linalg.norm(k + k.conj().T) <= 1e-12
    assert np.linalg.norm(scipy.linalg.expm(k) - w.mat) <= 1e-10
    phases = np.linalg.eigvalsh(k / 1j)
    assert np.all(phases <= np.pi + 1e-12)
    assert np.all(phases > -np.pi - 1e-12)


def test_principal_log_breaks_half_turn_tie_upward():
    # the -1 eigenvalue must take phase +pi, never -pi
    k = _principal_log(UnitaryMatrix(np.diag([-1.0 + 0j, 1.0])))
    assert k[0, 0].imag == pytest.approx(np.pi, abs=1e-12)
    assert abs(k[0, 0].real) <= 1e-12


def _spectrum(kind, n, rng):
    """Eigenphases of one family that stresses the principal logarithm."""
    if kind == "random":
        return rng.uniform(-np.pi, np.pi, n)
    if kind == "clustered":
        return rng.uniform(-np.pi, np.pi) + 1e-12 * rng.standard_normal(n)
    if kind == "repeated":
        return rng.choice(rng.uniform(-np.pi, np.pi, 2), n)
    if kind == "minus_one":
        return rng.choice([np.pi, 0.0, 1.0], n)
    # within 1e-15 of the branch cut, from both sides
    ph = rng.uniform(-np.pi, np.pi, n)
    ph[0] = -np.pi + 1e-15 * rng.uniform()
    ph[-1] = np.pi - 1e-15 * rng.uniform()
    return ph


@given(
    seeds,
    st.integers(2, 8),
    st.sampled_from(["random", "clustered", "repeated", "minus_one", "branch_cut"]),
)
def test_principal_eig_matches_schur_logarithm(seed, n, kind):
    """Differential: the Cayley eigendecomposition against the Schur log."""
    rng = np.random.default_rng(seed)
    q = haar_unitary(n, derive_seed(seed, 0)).mat
    w = UnitaryMatrix((q * np.exp(1j * _spectrum(kind, n, rng))) @ q.conj().T)
    phases, basis = witness_module._principal_eig(w)
    k = (basis * (1j * phases)) @ basis.conj().T
    assert np.linalg.norm(scipy.linalg.expm(k) - w.mat) <= 1e-13
    assert np.linalg.norm(basis.conj().T @ basis - np.eye(n)) <= 1e-13
    assert np.all(phases > -np.pi) and np.all(phases <= np.pi + 1e-12)

    t, z = scipy.linalg.schur(w.mat, output="complex")
    oracle_phases = np.angle(np.diagonal(t))
    if np.all(np.pi - np.abs(oracle_phases) > 1e-6):
        oracle = (z * (1j * oracle_phases)) @ z.conj().T
        assert np.linalg.norm(k - oracle) <= 1e-10

    identity = UnitaryMatrix.identity(n)
    assert np.linalg.norm(make_path(identity, w).at(1.0).mat - w.mat) <= ALGEBRAIC_TOL


# ----------------------------------------------------------- single pinches


def test_identity_pinching_witnessed_at_path_start():
    d = random_diagonal_tuple(3, 2, seed=7)
    spec = rand_map(3, 2, 3, seed=8)
    w = single_pinch_witness(d, spec, Pinching(1, 2, 1.0), tol=1e-10)
    assert w.t == 0.0
    assert abs(w.theta) <= 1e-8
    assert abs(w.phi) <= 1e-8
    assert w.residual <= 1e-12


def test_full_swap_pinching_witnessed_by_quarter_rotation():
    d = random_diagonal_tuple(3, 2, seed=9)
    spec = rand_map(3, 2, 3, seed=10)
    w = single_pinch_witness(d, spec, Pinching(1, 2, 0.0), tol=1e-10)
    assert w.t == 0.0
    assert w.theta == pytest.approx(np.pi / 2, abs=1e-8)
    assert w.residual <= 1e-10


def test_random_pinch_witness_is_sound():
    d = random_diagonal_tuple(3, 2, seed=11)
    spec = rand_map(3, 2, 3, seed=12)
    pinch = Pinching(1, 2, 0.37)
    w = single_pinch_witness(d, spec, pinch, tol=1e-8)
    target = eval_map(
        spec, conjugate_tuple(apply_chain(PinchChain(3, (pinch,)), d).to_hermitian(),
                              UnitaryMatrix.identity(3))
    )
    assert w.residual <= 1e-8
    assert reevaluate(d, spec, w.uprime, target) == pytest.approx(w.residual, abs=1e-14)


def test_witness_factors_through_rotation_times_path():
    d = random_diagonal_tuple(3, 2, seed=13)
    spec = rand_map(3, 2, 3, seed=14)
    u = haar_unitary(3, seed=15)
    w = single_pinch_witness(d, spec, Pinching(1, 2, 0.62), u=u, tol=1e-8)
    v = degenerate_unitary(d, spec).v
    f = make_path(u, v).at(w.t)
    rebuilt = t_theta_phi(w.theta, w.phi, 3).mat @ f.mat
    assert np.linalg.norm(w.uprime.mat - rebuilt) <= 1e-10


def test_pinch_location_is_transparent():
    """Pinching (2,3) matches its explicitly permuted (1,2) reduction.

    Rotating the start unitary by the permutation leaves the overall
    conjugation (and so the target) unchanged, which is why the map itself
    needs no relabeling.
    """
    d = random_diagonal_tuple(4, 2, seed=16)
    spec = rand_map(3, 2, 4, seed=17)
    u = haar_unitary(4, seed=18)
    w_high = single_pinch_witness(d, spec, Pinching(2, 3, 0.4), u=u, tol=1e-8)

    sigma = [1, 2, 0, 3]  # reduced slot i holds original index sigma[i]
    pi = np.zeros((4, 4))
    for i, j in enumerate(sigma):
        pi[i, j] = 1.0
    d_red = DiagonalTuple(d.vectors[:, sigma])
    u_red = UnitaryMatrix(pi @ u.mat)
    w_low = single_pinch_witness(d_red, spec, Pinching(1, 2, 0.4), u=u_red, tol=1e-8)
    assert w_high.residual == pytest.approx(w_low.residual, abs=1e-12)
    np.testing.assert_allclose(w_high.uprime.mat, pi.T @ w_low.uprime.mat, atol=1e-12)


@given(seeds, st.floats(0.0, 1.0))
def test_pinch_witnesses_are_sound_everywhere(seed, alpha):
    d = random_diagonal_tuple(3, 2, derive_seed(seed, 0))
    spec = rand_map(3, 2, 3, derive_seed(seed, 1))
    u = haar_unitary(3, derive_seed(seed, 2))
    pinch = Pinching(1, 3, alpha)
    w = single_pinch_witness(d, spec, pinch, u=u, tol=1e-6)
    dhat = apply_chain(PinchChain(3, (pinch,)), d)
    target = eval_map(spec, conjugate_tuple(dhat.to_hermitian(), u))
    assert w.residual <= 1e-6
    assert reevaluate(d, spec, w.uprime, target) <= 1e-6
    assert 0.0 <= w.t <= 1.0


@pytest.mark.parametrize("seed, n, delta", [(4, 3, 5e-7), (9, 3, 2.2e-7), (8, 4, 2.2e-7)])
def test_near_identity_pinch_meets_tolerance(seed, n, delta):
    """A target within the membership band of the initial slice surface.

    The band bounds how far the preimage norm is from one, not how far the
    target is from the surface, so the surface shortcut at the start of
    the path must not be taken unless it meets the tolerance.
    """
    d = random_diagonal_tuple(n, 2, seed)
    spec = rand_map(3, 2, n, seed + 1000)
    u = haar_unitary(n, seed + 2000)
    pinch = Pinching(1, 2, 1.0 - delta)
    w = single_pinch_witness(d, spec, pinch, u=u, tol=1e-6)
    dhat = apply_chain(PinchChain(n, (pinch,)), d)
    target = eval_map(spec, conjugate_tuple(dhat.to_hermitian(), u))
    assert reevaluate(d, spec, w.uprime, target) <= 1e-6


def test_crossing_search_computes_each_slice_once(monkeypatch):
    """Slice geometry is computed at most once per path parameter."""
    produced = {}  # id of a path-point stack -> (stack, its parameters)
    seen = []
    real_at_raw = PathSpec.at_raw
    real_geometry = witness_module._slice_geometry

    def at_raw(self, ts):
        out = real_at_raw(self, ts)
        produced[id(out)] = (out, [float(t) for t in ts])
        return out

    def geometry(d, us, cs):
        # a stack not built from the path is the start unitary, t = 0
        seen.extend(produced[id(us)][1] if id(us) in produced else [0.0])
        return real_geometry(d, us, cs)

    monkeypatch.setattr(PathSpec, "at_raw", at_raw)
    monkeypatch.setattr(witness_module, "_slice_geometry", geometry)
    d = random_diagonal_tuple(3, 2, seed=13)
    spec = rand_map(3, 2, 3, seed=14)
    w = single_pinch_witness(d, spec, Pinching(1, 2, 0.62), u=haar_unitary(3, seed=15))
    assert w.t > 0.0
    assert len(seen) > 200
    assert len(set(seen)) == len(seen)


@given(
    seeds,
    st.integers(3, 5),
    st.integers(1, 3),
    st.one_of(st.just(1.0 - 1e-7), st.floats(0.0, 1.0)),
    st.data(),
)
def test_crossing_search_solves_at_most_two_surfaces(seed, n, m, alpha, data):
    """Nearest-surface solves happen only at the two ends of the path.

    One checks the ``ON_SURFACE`` shortcut at ``t = 0``, the other the
    flattened slice at ``t = 1``; the bisection itself reads its
    candidates off the least-norm preimage.
    """
    s = data.draw(st.integers(1, n - 1))
    pinch = Pinching(s, data.draw(st.integers(s + 1, n)), alpha)
    d = random_diagonal_tuple(n, m, derive_seed(seed, 0))
    spec = rand_map(3, m, n, derive_seed(seed, 1))
    u = haar_unitary(n, derive_seed(seed, 2))
    calls = []
    real = witness_module.nearest_surface

    def counted(params, y):
        calls.append(1)
        return real(params, y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(witness_module, "nearest_surface", counted)
        mp.setattr(ellipsoid_module, "nearest_surface", counted)
        w = single_pinch_witness(d, spec, pinch, u=u, tol=1e-6)
    dhat = apply_chain(PinchChain(n, (pinch,)), d)
    target = eval_map(spec, conjugate_tuple(dhat.to_hermitian(), u))
    assert w.residual <= 1e-6
    assert reevaluate(d, spec, w.uprime, target) <= 1e-6
    assert len(calls) <= 2


@pytest.mark.parametrize("n, l", [(3, 3), (4, 3), (5, 2)])
def test_pinch_path_builds_no_tuple_objects(monkeypatch, n, l):
    """Chain and star witnesses run on arrays: no map or tuple objects are
    built and no object-level evaluation is called.  The one Hermitian
    matrix per crossing search is the degeneration certificate; with
    l < 3 every slice is flat and no crossing search runs."""
    d = random_diagonal_tuple(n, 2, seed=60 + n)
    spec = rand_map(l, 2, n, seed=70 + n)
    u = haar_unitary(n, seed=80 + n)
    chain = random_chain(n, 3, seed=90 + n)
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (core_module, ellipsoid_module, witness_module):
        for name in ("eval_map", "conjugate_tuple", "star_center", "degenerate_unitary"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(
        DiagonalTuple, "to_hermitian", counted("to_hermitian", DiagonalTuple.to_hermitian)
    )
    for cls in (HermitianMatrix, HermitianTuple, LinearMapSpec):
        monkeypatch.setattr(cls, "__post_init__", counted(cls.__name__, cls.__post_init__))

    w = chain_witness(d, spec, chain, u, tol=1e-6)
    sw = star_point_witness(d, spec, u, alpha=0.5, tol=1e-3)
    assert w.residual <= len(chain) * 1e-6
    assert sw.witness.residual <= 1e-3
    assert (calls.get("degenerate_unitary", 0) >= 1) == (l == 3)
    assert calls.pop("HermitianMatrix", 0) == calls.pop("degenerate_unitary", 0)
    assert calls == {}


def test_chain_witness_applies_each_pinch_a_bounded_number_of_times(monkeypatch):
    """Partial tuples are built once from the back, so a chain of k
    pinchings costs at most 2k pinch applications, not O(k^2)."""
    d = random_diagonal_tuple(4, 2, seed=95)
    spec = rand_map(2, 2, 4, seed=96)
    chain = random_chain(4, 10, seed=97)
    applied = []

    def counted(c, tup):
        applied.append(len(c))
        return apply_chain(c, tup)

    monkeypatch.setattr(witness_module, "apply_chain", counted)
    w = chain_witness(d, spec, chain, tol=1e-6)
    assert w.residual <= len(chain) * 1e-6
    assert sum(applied) <= 2 * len(chain)


def test_witness_validates_inputs():
    d3 = random_diagonal_tuple(3, 1, seed=19)
    with pytest.raises(ValueError):
        single_pinch_witness(d3, rand_map(4, 1, 3, seed=20), Pinching(1, 2, 0.5))
    with pytest.raises(ValueError):
        single_pinch_witness(
            random_diagonal_tuple(2, 1, seed=21), rand_map(3, 1, 2, seed=22), Pinching(1, 2, 0.5)
        )
    with pytest.raises(ValueError):
        single_pinch_witness(d3, rand_map(3, 1, 3, seed=23), Pinching(1, 4, 0.5))
    with pytest.raises(ValueError):
        single_pinch_witness(d3, rand_map(3, 1, 3, seed=24), Pinching(1, 2, 0.5), tol=0.0)


def test_four_output_maps_are_rejected_with_one_message():
    d = random_diagonal_tuple(3, 1, seed=54)
    spec = rand_map(4, 1, 3, seed=55)
    u = haar_unitary(3, seed=56)
    calls = [
        lambda: slice_params(d, u, spec),
        lambda: degenerate_unitary(d, spec),
        lambda: single_pinch_witness(d, spec, Pinching(1, 2, 0.5)),
        lambda: chain_witness(d, spec, PinchChain(3, ())),
        lambda: star_scaling_chain(d, spec, 0.5, 1e-3),
        lambda: star_point_witness(d, spec, u, 0.5),
        lambda: check_star_shaped(spec, d, samples=1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^slices and witnesses handle at most 3 output"):
            call()


# ------------------------------------------------------------------- chains


def test_empty_chain_returns_start_unitary():
    d = random_diagonal_tuple(3, 2, seed=25)
    spec = rand_map(3, 2, 3, seed=26)
    u = haar_unitary(3, seed=27)
    w = chain_witness(d, spec, PinchChain(3, ()), u=u, tol=1e-8)
    np.testing.assert_allclose(w.uprime.mat, u.mat, atol=1e-14)
    assert w.residual <= 1e-12


def test_chain_rejects_a_unitary_of_the_wrong_size():
    d = random_diagonal_tuple(3, 1, seed=57)
    with pytest.raises(ValueError, match="unitary has n=4, tuple has n=3"):
        chain_witness(d, rand_map(3, 1, 3, seed=58), PinchChain(3, ()), u=haar_unitary(4, seed=59))


def test_two_step_chain_accumulates_at_most_two_tolerances():
    d = random_diagonal_tuple(3, 1, seed=28)
    spec = rand_map(3, 1, 3, seed=29)
    chain = PinchChain(3, (Pinching(1, 2, 0.3), Pinching(2, 3, 0.8)))
    w = chain_witness(d, spec, chain, tol=1e-8)
    y0 = eval_map(
        spec,
        conjugate_tuple(apply_chain(chain, d).to_hermitian(), UnitaryMatrix.identity(3)),
    )
    assert w.residual <= 2e-8
    assert reevaluate(d, spec, w.uprime, y0) == pytest.approx(w.residual, abs=1e-14)


def test_averaging_chain_reaches_the_trace_center():
    d = DiagonalTuple(np.array([[1.0, -1.0, 0.0], [0.5, 0.5, -1.0]]))
    spec = rand_map(3, 2, 3, seed=30)
    synth = synth_scaling(ScalingTarget(3, 0.0), tol=1e-8)
    assert synth.achieved_error <= 1e-8
    w = chain_witness(d, spec, synth.chain, tol=1e-7)
    assert w.residual <= len(synth.chain) * 1e-7
    y0 = eval_map(
        spec,
        conjugate_tuple(
            apply_chain(synth.chain, d).to_hermitian(), UnitaryMatrix.identity(3)
        ),
    )
    center = star_center(spec, d.to_hermitian())
    # the fully pinched tuple sits at the center up to the synthesis error
    assert np.linalg.norm(y0 - center) <= 1e-5


# ---------------------------------------------------------------- star rays


def test_star_ray_endpoint_alpha_one_is_the_orbit_point():
    d = random_diagonal_tuple(3, 3, seed=31)
    spec = rand_map(3, 3, 3, seed=32)
    u = haar_unitary(3, seed=33)
    sw = star_point_witness(d, spec, u, alpha=1.0)
    np.testing.assert_allclose(sw.witness.uprime.mat, u.mat, atol=1e-14)
    assert sw.witness.residual <= 1e-12


def test_star_ray_on_scalar_tuple_is_trivial():
    d = DiagonalTuple(np.array([[2.0, 2.0, 2.0], [-0.5, -0.5, -0.5]]))
    spec = rand_map(3, 2, 3, seed=34)
    sw = star_point_witness(d, spec, haar_unitary(3, seed=35), alpha=0.4)
    assert sw.witness.residual <= 1e-9


def test_star_ray_midpoint_certificate():
    d = random_diagonal_tuple(3, 3, seed=36)
    spec = rand_map(3, 3, 3, seed=37)
    u = haar_unitary(3, seed=38)
    sw = star_point_witness(d, spec, u, alpha=0.5, tol=1e-3)
    expected = 0.5 * eval_map(spec, conjugate_tuple(d.to_hermitian(), u)) + 0.5 * star_center(
        spec, d.to_hermitian()
    )
    np.testing.assert_allclose(sw.target, expected, atol=1e-12)
    assert sw.witness.residual <= 1e-3
    assert reevaluate(d, spec, sw.witness.uprime, sw.target) == pytest.approx(
        sw.witness.residual, abs=1e-14
    )
    assert sw.synth_error >= 0.0
    assert sw.chain_length >= 1


def test_star_ray_reuses_a_shared_synthesis():
    d = random_diagonal_tuple(4, 2, seed=39)
    spec = rand_map(3, 2, 4, seed=40)
    synth = star_scaling_chain(d, spec, alpha=0.3, tol=1e-3)
    for j in range(3):
        u = haar_unitary(4, seed=41 + j)
        sw = star_point_witness(d, spec, u, alpha=0.3, tol=1e-3, synth=synth)
        assert sw.witness.residual <= 1e-3
        assert sw.chain_length == len(synth.chain)


def test_star_ray_two_level_two_outputs_falls_back_to_descent():
    d = random_diagonal_tuple(2, 2, seed=42)
    spec = rand_map(2, 2, 2, seed=43)
    sw = star_point_witness(d, spec, haar_unitary(2, seed=44), alpha=0.3, tol=1e-3)
    assert sw.witness.residual <= 1e-3


def test_star_ray_rejects_impossible_regimes():
    with pytest.raises(ValueError):
        star_point_witness(
            random_diagonal_tuple(2, 1, seed=45),
            rand_map(3, 1, 2, seed=46),
            haar_unitary(2, seed=47),
            alpha=0.5,
        )
    with pytest.raises(ValueError):
        star_point_witness(
            random_diagonal_tuple(3, 1, seed=48),
            rand_map(3, 1, 3, seed=49),
            haar_unitary(3, seed=50),
            alpha=1.5,
        )
