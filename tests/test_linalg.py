"""Tests for the linear-algebra kernel: eigendecompositions, logarithm
branches, the index-swap involution, partial traces, small helpers, and the
matrix exponential against ``scipy.linalg.expm`` as its oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm as scipy_expm

from lindbladfit import channels, linalg
from lindbladfit.errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    NotPerfectSquareDim,
    SingularInput,
)
from lindbladfit.linalg import (
    SpectralData,
    branch,
    eig_full,
    flip_matrix,
    frobenius,
    gamma_involution,
    matrix_log_principal,
    max_entangled,
    one_norm,
    partial_trace_first,
    side_dim,
    vec_adjoint,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]])


def random_simple(n, seed):
    """Ginibre matrix; almost surely a simple spectrum."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# ----------------------------------------------------------------------
# eig_full / SpectralData
# ----------------------------------------------------------------------


def test_eig_diag_canonical_order():
    s = eig_full(np.diag([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(s.eigenvalues, [4.0, 3.0, 2.0, 1.0])
    # projectors of a diagonal matrix are the elementary ones, permuted
    # into the canonical eigenvalue order
    for j, orig in enumerate([3, 2, 1, 0]):
        expected = np.zeros((4, 4))
        expected[orig, orig] = 1.0
        assert np.allclose(s.projectors[j], expected, atol=1e-12)


def test_eig_rejects_degenerate_spectrum():
    with pytest.raises(DegenerateSpectrum):
        eig_full(np.kron(X, X))


def test_eig_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        eig_full(np.ones((2, 3)))


def test_eig_residual_small():
    m = random_simple(9, seed=5)
    s = eig_full(m)
    for j in range(9):
        r = s.right_vectors[:, j]
        assert np.linalg.norm(m @ r - s.eigenvalues[j] * r) <= 1e-9


def test_eig_phase_convention_deterministic():
    m = random_simple(6, seed=11)
    s1, s2 = eig_full(m), eig_full(m.copy())
    assert np.array_equal(s1.right_vectors, s2.right_vectors)
    # largest component of each column sits on the positive real axis
    for j in range(6):
        col = s1.right_vectors[:, j]
        anchor = col[np.argmax(np.abs(col))]
        assert abs(anchor.imag) <= 1e-12
        assert anchor.real > 0


def test_spectral_invariants_random():
    """Biorthogonality / completeness / reconstruction across many draws."""
    for dim in (4, 16):
        for trial in range(100):
            s = eig_full(random_simple(dim, seed=1000 * dim + trial))
            eye = np.eye(dim)
            assert np.max(np.abs(s.left_vectors @ s.right_vectors - eye)) <= 1e-10
            assert np.max(np.abs(s.projectors.sum(axis=0) - eye)) <= 1e-8
            src = random_simple(dim, seed=1000 * dim + trial)
            reconstructed = (s.right_vectors * s.eigenvalues) @ s.left_vectors
            assert frobenius(reconstructed - src) <= 1e-8


def test_projector_stack_matches_single():
    """Each stacked projector is the rank-one |r_j><l_j| and idempotent."""
    s = eig_full(random_simple(4, seed=3))
    stack = s.projectors
    assert stack.shape == (4, 4, 4)
    for j in range(4):
        p = stack[j]
        assert np.allclose(p, np.outer(s.right_vectors[:, j], s.left_vectors[j]))
        assert np.allclose(p @ p, p, atol=1e-10)


# ----------------------------------------------------------------------
# matrix logarithm and branches
# ----------------------------------------------------------------------


def test_log_of_scaled_identity():
    # spectrum of e*I is maximally degenerate, so feed the decomposition
    # directly rather than going through eig_full
    eye = np.eye(4, dtype=complex)
    s = SpectralData(np.full(4, np.e, dtype=complex), eye, eye)
    assert np.allclose(matrix_log_principal(s), np.eye(4), atol=1e-12)


def test_log_round_trip():
    m = random_simple(4, seed=21)
    l0 = matrix_log_principal(eig_full(m))
    assert frobenius(linalg.expm(l0) - m) <= 1e-8


def test_log_principal_branch_cut():
    # negative real eigenvalues land on +i*pi, i.e. Im in (-pi, pi]
    s = eig_full(np.diag([5.0, 3.0, 1.0, -2.0]))
    l0 = matrix_log_principal(s)
    logs = np.diag(l0)
    assert np.all(logs.imag <= np.pi + 1e-12)
    assert np.all(logs.imag > -np.pi)
    assert np.isclose(logs[3], math.log(2.0) + 1j * np.pi)


def test_log_rejects_singular():
    s = eig_full(np.diag([0.0, 1.0, 2.0, 3.0]))
    with pytest.raises(SingularInput):
        matrix_log_principal(s)


def test_branch_zero_is_identity_map():
    m = random_simple(4, seed=8)
    s = eig_full(m)
    l0 = matrix_log_principal(s)
    assert branch(l0, s, np.zeros(4, dtype=int)) is l0


def test_branch_shifts_one_slot():
    m = random_simple(4, seed=9)
    s = eig_full(m)
    l0 = matrix_log_principal(s)
    lm = branch(l0, s, np.array([1, 0, 0, 0]))
    assert np.allclose(lm - l0, 2j * np.pi * s.projectors[0], atol=1e-12)


def test_branch_rejects_wrong_length():
    s = eig_full(random_simple(4, seed=10))
    l0 = matrix_log_principal(s)
    with pytest.raises(DimensionMismatch):
        branch(l0, s, np.zeros(3, dtype=int))


def test_branch_preserves_exponential_small_grid():
    m = random_simple(4, seed=17)
    s = eig_full(m)
    l0 = matrix_log_principal(s)
    ref = linalg.expm(l0)
    for flat in range(81):
        digits = [(flat // 3**j) % 3 - 1 for j in range(4)]
        lm = branch(l0, s, np.array(digits))
        assert frobenius(linalg.expm(lm) - ref) <= 1e-8


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.lists(st.integers(min_value=-2, max_value=2), min_size=4, max_size=4),
)
def test_branch_never_changes_exponential(seed, m):
    src = random_simple(4, seed=seed)
    s = eig_full(src)
    l0 = matrix_log_principal(s)
    lm = branch(l0, s, np.array(m))
    scale = max(1.0, frobenius(src))
    assert frobenius(linalg.expm(lm) - src) <= 1e-7 * scale


# ----------------------------------------------------------------------
# involutions
# ----------------------------------------------------------------------


def test_gamma_is_involution_bit_exact():
    a = random_simple(16, seed=2)
    assert np.array_equal(gamma_involution(gamma_involution(a)), a)


def test_gamma_preserves_frobenius_norm():
    a = random_simple(9, seed=4)
    assert math.isclose(frobenius(a), frobenius(gamma_involution(a)), rel_tol=1e-12)


def test_gamma_of_identity_is_omega_projector():
    ent = max_entangled(2)
    assert np.allclose(
        gamma_involution(np.eye(4)),
        2.0 * np.outer(ent.omega, ent.omega.conj()),
        atol=1e-15,
    )


def test_gamma_entry_permutation_oracle():
    # independent index-level definition: out[(j,l),(k,m)] = a[(j,k),(l,m)]
    d = 3
    a = random_simple(d * d, seed=33)
    out = gamma_involution(a)
    for j in range(d):
        for k in range(d):
            for l_ in range(d):
                for m_ in range(d):
                    assert out[j * d + l_, k * d + m_] == a[j * d + k, l_ * d + m_]


def test_gamma_stack_support():
    stack = np.stack([random_simple(4, seed=s) for s in (40, 41)])
    out = gamma_involution(stack)
    for i in range(2):
        assert np.array_equal(out[i], gamma_involution(stack[i]))


def test_gamma_rejects_bad_dim():
    with pytest.raises(NotPerfectSquareDim):
        gamma_involution(np.eye(3))


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_hermiticity_preserving_iff_gamma_hermitian(seed):
    """A map built from conjugation terms K (x) K* has hermitian image
    under the involution; breaking the pairing breaks hermiticity."""
    rng = np.random.default_rng(seed)
    k1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    k2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    hp_map = 0.7 * np.kron(k1, k1.conj()) - 1.3 * np.kron(k2, k2.conj())
    tau = gamma_involution(hp_map)
    assert frobenius(tau - tau.conj().T) <= 1e-12
    broken = np.kron(k1, k2.conj())
    tau2 = gamma_involution(broken)
    if frobenius(k1 - k2) > 1e-6:
        assert frobenius(tau2 - tau2.conj().T) > 1e-8


def test_vec_adjoint_examples():
    v = np.array([1.0, 1.0, 1.0, 1.0], dtype=complex)
    assert np.array_equal(vec_adjoint(v), v)
    w = np.array([1.0, 1.0, -1.0, -1.0], dtype=complex)
    assert np.array_equal(vec_adjoint(w), np.array([1.0, -1.0, 1.0, -1.0]))


def test_vec_adjoint_is_matrix_dagger():
    rng = np.random.default_rng(6)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    a = v.reshape(3, 3)
    assert np.allclose(vec_adjoint(v).reshape(3, 3), a.conj().T)
    assert np.array_equal(vec_adjoint(vec_adjoint(v)), v)


def test_vec_adjoint_via_flip():
    rng = np.random.default_rng(7)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.allclose(vec_adjoint(v), flip_matrix(2) @ v.conj())


def test_flip_matrix_swaps_factors():
    f = flip_matrix(3)
    assert np.array_equal(f @ f, np.eye(9))
    a, b = random_simple(3, seed=1), random_simple(3, seed=2)
    assert np.allclose(f @ np.kron(a, b) @ f, np.kron(b, a))


# ----------------------------------------------------------------------
# partial trace
# ----------------------------------------------------------------------


def test_partial_trace_of_kron():
    a, b = random_simple(2, seed=12), random_simple(2, seed=13)
    assert np.allclose(partial_trace_first(np.kron(a, b)), np.trace(a) * b)
    # leading batch axes: each slice is its own partial trace
    pairs = [(random_simple(2, seed=s), random_simple(2, seed=s + 1)) for s in (14, 16, 18)]
    stack = np.array([np.kron(x, y) for x, y in pairs]).reshape(3, 1, 4, 4)
    out = partial_trace_first(stack)
    assert out.shape == (3, 1, 2, 2)
    for k, (x, y) in enumerate(pairs):
        np.testing.assert_array_equal(out[k, 0], partial_trace_first(stack[k, 0]))
        assert np.allclose(out[k, 0], np.trace(x) * y)


def test_partial_trace_identity():
    assert np.allclose(partial_trace_first(np.eye(4)), 2.0 * np.eye(2))


def test_trace_slot_vanishes_for_generators():
    # trace preservation of exp(tL) is equivalent to the first-factor
    # trace of the involution image vanishing
    from lindbladfit.channels import random_lindblad_generator

    for seed in range(5):
        rng = np.random.default_rng(seed)
        gen = random_lindblad_generator(2, rng)
        assert one_norm(partial_trace_first(gamma_involution(gen))) <= 1e-10


# ----------------------------------------------------------------------
# norms and helpers
# ----------------------------------------------------------------------


def test_frobenius_identity():
    assert frobenius(np.eye(4)) == 2.0


def test_one_norm_is_entrywise():
    assert one_norm(np.array([[1.0, -2.0], [3.0j, 0.0]])) == 6.0


def test_frobenius_submultiplicative():
    a, b = random_simple(5, seed=50), random_simple(5, seed=51)
    assert frobenius(a @ b) <= frobenius(a) * frobenius(b) + 1e-12


def test_herm_skew_split():
    a = random_simple(4, seed=52)
    h = linalg.herm(a)
    s = a - h
    assert np.allclose(h, h.conj().T)
    assert np.allclose(s, -s.conj().T)


def test_side_dim():
    assert side_dim(16) == 4
    with pytest.raises(NotPerfectSquareDim):
        side_dim(15)


def test_max_entangled_is_built_once_and_read_only():
    ent = max_entangled(2)
    assert max_entangled(2) is ent
    for array in (ent.omega, ent.omega_perp):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_max_entangled_projector():
    ent = max_entangled(3)
    assert math.isclose(np.linalg.norm(ent.omega), 1.0, rel_tol=1e-14)
    perp = ent.omega_perp
    assert frobenius(perp - perp.conj().T) <= 1e-12
    assert frobenius(perp @ perp - perp) <= 1e-12
    assert np.linalg.norm(perp @ ent.omega) <= 1e-12
    assert math.isclose(np.trace(perp).real, 8.0, rel_tol=1e-12)


# ----------------------------------------------------------------------
# matrix exponential
# ----------------------------------------------------------------------


@pytest.mark.parametrize("lead", [(), (3,), (3, 2), (0,)])
def test_expm_batches_over_leading_axes(lead):
    rng = np.random.default_rng(5)
    a = rng.standard_normal(lead + (4, 4)) + 1j * rng.standard_normal(lead + (4, 4))
    got = linalg.expm(a)
    assert got.shape == a.shape
    np.testing.assert_allclose(got, scipy_expm(a), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("scale", [0.1, 0.3, 1.0, 3.0, 10.0, 30.0])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_expm_matches_scipy_on_lindblad_generators(d, scale):
    """At scale 30 these draws reach a 1-norm of 1.8e4 at d = 4 (12
    squarings), where the rounding floor u·||A||_1 of either method nears
    1e-12; they agree within 5.7e-13."""
    rng = np.random.default_rng(d)
    for _ in range(3):
        g = channels.random_lindblad_generator(d, rng, scale=scale)
        want = scipy_expm(g)
        assert frobenius(linalg.expm(g) - want) <= 1e-12 * frobenius(want)


def test_expm_of_zero_is_exactly_identity():
    for n in (1, 4, 9):
        got = linalg.expm(np.zeros((2, n, n)))
        assert np.array_equal(got, np.broadcast_to(np.eye(n), (2, n, n)))


def test_expm_scales_each_matrix_of_a_batch_on_its_own():
    """Norms 1e-3 and 50 side by side: each matrix takes its own number of
    squarings, so the batch equals the single calls bit for bit.  With one
    s for the whole stack the small matrices still land within 1e-15, so
    only exact equality sees the difference."""
    rng = np.random.default_rng(8)
    a = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
    norms = np.abs(a).sum(axis=1).max(axis=1)
    a *= (np.array([1e-3, 50.0, 1e-3, 50.0, 1.0, 7.0]) / norms)[:, None, None]
    for m, got in zip(a, linalg.expm(a)):
        np.testing.assert_array_equal(got, linalg.expm(m))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
def test_expm_of_non_finite_entry_is_nan_like_scipy(bad):
    a = random_simple(4, 3)
    a[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = linalg.expm(np.stack([a, np.eye(4)]))
        want = scipy_expm(a)
    assert np.isnan(got[0]).all() and np.isnan(want).all()
    np.testing.assert_array_equal(got[1], linalg.expm(np.eye(4)))


def test_expm_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        linalg.expm(np.zeros((2, 3)))
