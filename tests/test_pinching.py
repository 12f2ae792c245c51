"""Pinching matrices, chains, and doubly stochastic scaling synthesis."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lrange import (
    DiagonalTuple,
    PinchChain,
    Pinching,
    ScalingTarget,
    apply_chain,
    chain_matrix,
    pinch_matrix,
    random_chain,
    random_diagonal_tuple,
    synth_scaling,
)


def is_doubly_stochastic(mat, tol=1e-12):
    n = mat.shape[0]
    return (
        np.all(mat >= -1e-15)
        and np.allclose(mat.sum(axis=0), np.ones(n), atol=tol)
        and np.allclose(mat.sum(axis=1), np.ones(n), atol=tol)
    )


def test_pinch_matrix_identity_weight():
    np.testing.assert_array_equal(pinch_matrix(Pinching(1, 3, 1.0), 4), np.eye(4))


def test_pinch_matrix_two_by_two_entries():
    alpha = 0.3
    expected = np.array([[alpha, 1 - alpha], [1 - alpha, alpha]])
    np.testing.assert_array_equal(pinch_matrix(Pinching(1, 2, alpha), 2), expected)


@given(
    st.integers(2, 6),
    st.floats(0.0, 1.0),
    st.data(),
)
def test_pinch_matrix_is_symmetric_doubly_stochastic(n, alpha, data):
    s = data.draw(st.integers(1, n - 1))
    t = data.draw(st.integers(s + 1, n))
    mat = pinch_matrix(Pinching(s, t, alpha), n)
    assert is_doubly_stochastic(mat, tol=1e-15)
    np.testing.assert_array_equal(mat, mat.T)


def test_pinching_validates_indices_and_weight():
    with pytest.raises(ValueError):
        Pinching(2, 2, 0.5)
    with pytest.raises(ValueError):
        Pinching(1, 2, 1.5)
    with pytest.raises(ValueError):
        pinch_matrix(Pinching(1, 5, 0.5), 3)
    with pytest.raises(ValueError):
        PinchChain(3, (Pinching(2, 4, 0.5),))


def test_apply_chain_halving_example():
    d = DiagonalTuple(np.array([[1.0, 0.0, 0.0, 0.0]]))
    chain = PinchChain(4, (Pinching(1, 2, 0.5),))
    np.testing.assert_allclose(
        apply_chain(chain, d).vectors, [[0.5, 0.5, 0.0, 0.0]], atol=0
    )


def test_apply_empty_chain_is_identity():
    d = random_diagonal_tuple(4, 3, seed=1)
    out = apply_chain(PinchChain(4, ()), d)
    np.testing.assert_array_equal(out.vectors, d.vectors)


def test_apply_chain_matches_dense_product():
    """Oracle: multiply the pinch matrices out and hit the vectors directly."""
    chain = PinchChain(4, (Pinching(2, 4, 0.3), Pinching(1, 3, 0.8)))
    d = random_diagonal_tuple(4, 2, seed=5)
    dense = chain_matrix(chain)
    expected = (dense @ d.vectors.T).T
    np.testing.assert_allclose(apply_chain(chain, d).vectors, expected, atol=1e-12)


def test_apply_chain_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_chain(PinchChain(3, ()), random_diagonal_tuple(4, 1, seed=0))


@given(st.integers(0, 2**32 - 1), st.integers(0, 8))
def test_apply_chain_preserves_vector_sums(seed, k):
    d = random_diagonal_tuple(5, 2, seed)
    chain = random_chain(5, k, seed ^ 0xABCD)
    out = apply_chain(chain, d)
    np.testing.assert_allclose(
        out.vectors.sum(axis=1), d.vectors.sum(axis=1), atol=1e-12
    )


@given(st.integers(0, 2**32 - 1), st.integers(0, 10))
def test_chain_products_are_doubly_stochastic(seed, k):
    chain = random_chain(4, k, seed)
    assert is_doubly_stochastic(chain_matrix(chain))


def test_random_chain_deterministic_and_sized():
    assert len(random_chain(4, 0, seed=7)) == 0
    a = random_chain(4, 5, seed=7)
    b = random_chain(4, 5, seed=7)
    assert [(p.s, p.t, p.alpha) for p in a.steps] == [(p.s, p.t, p.alpha) for p in b.steps]
    assert is_doubly_stochastic(chain_matrix(a))


# ------------------------------------------------------------------ synthesis


def test_synth_two_by_two_is_exact_closed_form():
    for alpha in (0.0, 0.25, 0.5, 0.75):
        res = synth_scaling(ScalingTarget(2, alpha), tol=1e-12)
        assert res.achieved_error == 0.0
        assert len(res.chain) == 1
        (step,) = res.chain.steps
        assert (step.s, step.t) == (1, 2)
        assert step.alpha == pytest.approx(alpha + (1 - alpha) / 2, abs=1e-15)


def test_synth_alpha_one_is_empty_chain():
    res = synth_scaling(ScalingTarget(5, 1.0), tol=1e-12)
    assert len(res.chain) == 0
    assert res.achieved_error == 0.0


def test_round_robin_halvings_converge_to_averaging():
    """Oracle for S(0): repeated pairwise averaging converges to J_n."""
    n = 3
    prod = np.eye(n)
    half = [
        pinch_matrix(Pinching(s, t, 0.5), n)
        for (s, t) in [(1, 2), (1, 3), (2, 3)]
    ]
    for _ in range(40):
        for mat in half:
            prod = mat @ prod
    assert np.linalg.norm(prod - np.full((n, n), 1 / n)) <= 1e-6


def test_synth_reaches_averaging_target():
    res = synth_scaling(ScalingTarget(3, 0.0), tol=1e-6)
    assert res.achieved_error <= 1e-6
    # reported error is the exact re-evaluated distance
    gap = np.linalg.norm(chain_matrix(res.chain) - ScalingTarget(3, 0.0).matrix())
    assert gap == pytest.approx(res.achieved_error, abs=1e-14)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_synth_midrange_alphas_within_default_budget(alpha):
    res = synth_scaling(ScalingTarget(3, alpha), tol=1e-2)
    assert res.achieved_error <= 1e-2


def test_synth_error_trace_is_monotone():
    res = synth_scaling(ScalingTarget(4, 0.3), tol=1e-8)
    trace = np.asarray(res.error_trace)
    assert trace.size >= 1
    assert np.all(np.diff(trace) <= 1e-14)


def test_synth_unreachable_tol_is_reported_not_raised():
    res = synth_scaling(ScalingTarget(3, 0.37), tol=1e-300)
    assert np.isfinite(res.achieved_error)
    assert res.achieved_error >= 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("alpha", [0.0, 1e-6, 0.3, 0.5, 0.9, 1 - 1e-9])
def test_synth_path_chain_is_exact(n, alpha):
    """The path pattern repeated n - 1 times gives S(alpha) exactly."""
    res = synth_scaling(ScalingTarget(n, alpha), tol=1e-12)
    assert len(res.chain) == (n - 1) ** 2
    assert res.achieved_error <= 1e-13
    gap = np.linalg.norm(chain_matrix(res.chain) - ScalingTarget(n, alpha).matrix())
    assert res.achieved_error == pytest.approx(gap, abs=1e-14)


def test_synth_sweep_fallback_reaches_tol_beyond_the_path():
    res = synth_scaling(ScalingTarget(7, 0.5), tol=1e-10)
    assert len(res.chain) > 6**2  # not the path chain
    assert res.achieved_error <= 1e-10
    gap = np.linalg.norm(chain_matrix(res.chain) - ScalingTarget(7, 0.5).matrix())
    assert res.achieved_error == pytest.approx(gap, abs=1e-14)


def test_synth_chains_compose_like_the_scaling_semigroup():
    """S(a) S(a') = (a a') I + (1 - a a') J, so synthesized chains compose."""
    a1, a2 = 0.3, 0.6
    r1 = synth_scaling(ScalingTarget(3, a1), tol=1e-4)
    r2 = synth_scaling(ScalingTarget(3, a2), tol=1e-4)
    assert r1.achieved_error <= 1e-4
    assert r2.achieved_error <= 1e-4
    composite = chain_matrix(r1.chain) @ chain_matrix(r2.chain)
    target = ScalingTarget(3, a1 * a2).matrix()
    assert np.linalg.norm(composite - target) <= 3e-4


def test_synth_validates_arguments():
    with pytest.raises(ValueError):
        synth_scaling(ScalingTarget(3, 0.5), tol=0.0)
    with pytest.raises(ValueError):
        ScalingTarget(3, 1.2)
