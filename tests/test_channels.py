"""Channel constructors, generator builders, and the tomography simulator."""

import dataclasses
import json

import numpy as np
import pytest

from lindbladfit.channels import (
    ChannelSpec,
    TomographyConfig,
    depolarizing_cz_transfer,
    depolarizing_transfer,
    identity_transfer,
    is_lindbladian,
    iswap_gate,
    lindblad_generator,
    random_lindblad_generator,
    simulate_process_tomography,
    unital_transfer,
    unitary_transfer,
    x_gate,
)
from lindbladfit.errors import (
    DimensionMismatch,
    InputError,
    NotCompletelyPositive,
    NotHermitianHamiltonian,
    NotUnitary,
    OutOfRange,
)
from lindbladfit.linalg import frobenius

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def spectrum_multiset(mat, decimals=6):
    """Eigenvalues rounded and tallied, order-independent."""
    vals = np.linalg.eigvals(mat)
    tally: dict[complex, int] = {}
    for v in vals:
        key = complex(round(v.real, decimals), round(v.imag, decimals))
        tally[key] = tally.get(key, 0) + 1
    return tally


# ----------------------------------------------------------------------
# exact transfer matrices
# ----------------------------------------------------------------------

def test_x_gate_transfer_is_kron():
    t = unitary_transfer(x_gate())
    assert t.d == 2
    assert np.array_equal(t.mat, np.kron(X, X.conj()))


def test_unitary_transfer_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        unitary_transfer(np.array([[1.0, 0.1], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        unitary_transfer(np.ones((2, 3)))


def test_identity_transfer():
    t = identity_transfer(3)
    assert np.array_equal(t.mat, np.eye(9))
    assert max(t.cpt_residuals()) <= 1e-12


def test_iswap_spectrum_multiplicities():
    """iSWAP conjugation has eigenvalues 1, -1, i, -i with known counts."""
    t = unitary_transfer(iswap_gate())
    tally = spectrum_multiset(t.mat)
    assert tally == {(1 + 0j): 6, (-1 + 0j): 2, 1j: 4, -1j: 4}


def test_depolarizing_spectrum():
    tally = spectrum_multiset(depolarizing_transfer(0.75).mat)
    assert tally == {(1 + 0j): 1, 0j: 3}
    tally = spectrum_multiset(depolarizing_transfer(0.3).mat)
    assert tally == {(1 + 0j): 1, (0.6 + 0j): 3}


def test_depolarizing_range():
    for bad in (-0.1, 1.1):
        with pytest.raises(OutOfRange):
            depolarizing_transfer(bad)


def test_unital_transfer_spectrum_matches_decay_factors():
    gamma = (0.3, 0.5, 0.8)
    t = unital_transfer(gamma)
    caps = sorted(
        np.exp(-(gamma[j] + gamma[k]))
        for j, k in ((1, 2), (0, 2), (0, 1))
    )
    got = sorted(np.linalg.eigvals(t.mat).real)
    assert np.allclose(got[:3], caps, atol=1e-12)
    assert abs(got[3] - 1.0) <= 1e-12


def test_unital_transfer_cp_boundary():
    """Decay factors (0.2, 0.5, 0.7) sit exactly on the CP boundary."""
    logs = -np.log(np.array([0.2, 0.5, 0.7]))
    rates = 0.5 * np.array(
        [logs[1] + logs[2] - logs[0],
         logs[0] + logs[2] - logs[1],
         logs[0] + logs[1] - logs[2]]
    )
    t = unital_transfer(rates)  # accepted: equality holds within tolerance
    assert max(t.cpt_residuals()) <= 1e-8
    with pytest.raises(NotCompletelyPositive):
        unital_transfer(rates - np.array([1e-6, 0.0, 0.0]))


def test_unital_transfer_needs_three_rates():
    with pytest.raises(OutOfRange):
        unital_transfer((0.1, 0.2))


def test_depolarizing_cz_benchmark_spectrum():
    t = depolarizing_cz_transfer(0.1, 0.07, 0.08, 0.09)
    tally = spectrum_multiset(t.mat, decimals=2)
    expected = {
        (1 + 0j): 2, (0.93 + 0j): 2, (0.7 + 0j): 2, (0.67 + 0j): 2,
        (0.57 + 0j): 2, (0.47 + 0j): 2,
        (0.68 + 0j): 1, (0.66 + 0j): 1, (0.48 + 0j): 1, (0.46 + 0j): 1,
    }
    assert tally == expected


def test_depolarizing_cz_rejects_bad_mixture():
    with pytest.raises(OutOfRange):
        depolarizing_cz_transfer(-0.1, 0.2, 0.2, 0.2)
    with pytest.raises(OutOfRange):
        depolarizing_cz_transfer(0.5, 0.3, 0.2, 0.2)


@pytest.mark.parametrize(
    "transfer",
    [
        unitary_transfer(x_gate()),
        unitary_transfer(iswap_gate()),
        identity_transfer(2),
        identity_transfer(4),
        depolarizing_transfer(0.3),
        unital_transfer((0.3, 0.5, 0.8)),
        depolarizing_cz_transfer(0.1, 0.07, 0.08, 0.09),
    ],
    ids=["x", "iswap", "id2", "id4", "depol", "unital", "depolcz"],
)
def test_exact_channels_are_cpt(transfer):
    herm, pos, trace = transfer.cpt_residuals()
    assert herm <= 1e-10
    assert pos <= 1e-10
    assert trace <= 1e-10


# ----------------------------------------------------------------------
# Lindblad generators
# ----------------------------------------------------------------------

def test_dephasing_generator_matrix():
    """Pure dephasing: H = 0, jump sqrt(g) Z gives diag(0, -2g, -2g, 0)."""
    g = 0.35
    gen = lindblad_generator(np.zeros((2, 2)), [np.sqrt(g) * Z])
    assert np.allclose(gen, g * np.diag([0.0, -2.0, -2.0, 0.0]), atol=1e-14)


def test_hamiltonian_generator_matrix():
    h = np.diag([0.7, -0.2])
    gen = lindblad_generator(h)
    assert np.allclose(gen, 1j * np.diag([0.0, -0.9, 0.9, 0.0]), atol=1e-14)


def test_generator_rejects_non_hermitian_hamiltonian():
    with pytest.raises(NotHermitianHamiltonian):
        lindblad_generator(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("d", [2, 4])
def test_random_generators_are_lindbladians(d):
    rng = np.random.default_rng(99)
    for _ in range(50):
        gen = random_lindblad_generator(d, rng)
        check = is_lindbladian(gen, tol=1e-9)
        assert check.ok, check.residuals


def test_generator_exponential_is_cpt():
    from scipy.linalg import expm

    rng = np.random.default_rng(5)
    for _ in range(5):
        gen = random_lindblad_generator(2, rng)
        for t in (0.1, 1.0, 3.0):
            snap = expm(t * gen)
            from lindbladfit.channels import TransferMatrix

            res = TransferMatrix(2, snap).cpt_residuals()
            assert max(res) <= 1e-8


# ----------------------------------------------------------------------
# the three generator conditions
# ----------------------------------------------------------------------

def test_zero_is_a_lindbladian():
    check = is_lindbladian(np.zeros((4, 4)))
    assert check.ok
    assert check.residuals == (0.0, 0.0, 0.0)


def test_negated_dissipator_fails_ccp():
    gen = lindblad_generator(np.zeros((2, 2)), [Z])
    check = is_lindbladian(-gen)
    assert not check.ok
    assert check.ccp > 0.5
    assert check.hermiticity <= 1e-12
    assert check.trace <= 1e-12


def test_skew_choi_fails_hermiticity():
    check = is_lindbladian(1j * np.eye(4))
    assert not check.ok
    assert check.hermiticity > 1.0


def test_trace_leak_detected():
    # exp of this inflates the trace: partial trace of the Choi form is I/2
    leak = 0.5 * np.eye(2).reshape(-1)[:, None] * np.eye(2).reshape(-1)[None, :]
    check = is_lindbladian(leak)
    assert not check.ok
    assert check.trace > 0.5


def test_white_noise_shift_restores_ccp():
    """The anti-noise direction violates CCP by c/d; adding c of noise back
    (subtracting c times the orthogonal projector) repairs it exactly."""
    from lindbladfit.linalg import max_entangled

    perp = max_entangled(2).omega_perp
    bad = 0.3 * perp
    check = is_lindbladian(bad)
    assert not check.ok
    assert check.ccp == pytest.approx(0.15, abs=1e-12)
    assert check.hermiticity <= 1e-12
    assert check.trace <= 1e-12
    fixed = bad - 2 * check.ccp * perp
    assert is_lindbladian(fixed, tol=1e-9).ok


# ----------------------------------------------------------------------
# channel specifications (the CLI-facing tagged union)
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "spec",
    [
        ChannelSpec("xgate"),
        ChannelSpec("iswap"),
        ChannelSpec("identity", {"d": 4}),
        ChannelSpec("depolarizing", {"p": 0.4}),
        ChannelSpec("unital", {"gamma": [0.3, 0.5, 0.8], "t": 2.0}),
        ChannelSpec("depolarizing-cz", {"probs": [0.1, 0.07, 0.08, 0.09]}),
    ],
    ids=lambda s: s.kind,
)
def test_channel_spec_json_round_trip(spec):
    """Every kind's params are plain JSON: the spec survives dump and load."""
    back = ChannelSpec(**json.loads(json.dumps(dataclasses.asdict(spec))))
    assert back == spec
    assert np.array_equal(back.transfer().mat, spec.transfer().mat)


def test_unknown_channel_kind():
    with pytest.raises(InputError):
        ChannelSpec("teleport").transfer()


def test_tomography_config_validation():
    with pytest.raises(OutOfRange):
        TomographyConfig(shots=0, seed=1)


# ----------------------------------------------------------------------
# finite-shot tomography
# ----------------------------------------------------------------------

def test_many_shots_recover_x_gate():
    est = simulate_process_tomography(
        ChannelSpec("xgate"), TomographyConfig(shots=10**8, seed=0)
    )
    assert frobenius(est.mat - np.kron(X, X.conj())) <= 3e-3


def test_shot_noise_error_band():
    """At 1e4 shots the snapshot error sits in a predictable band."""
    exact = np.kron(X, X.conj())
    errs = []
    for seed in range(20):
        est = simulate_process_tomography(
            ChannelSpec("xgate"), TomographyConfig(shots=10**4, seed=seed)
        )
        errs.append(frobenius(est.mat - exact))
    assert min(errs) >= 0.005
    assert max(errs) <= 0.08


def test_noisy_identity_spectrum_stays_near_one():
    est = simulate_process_tomography(
        ChannelSpec("identity"), TomographyConfig(shots=10**4, seed=11)
    )
    assert np.max(np.abs(np.linalg.eigvals(est.mat) - 1.0)) <= 0.1


def test_more_shots_reduce_error():
    exact = np.kron(X, X.conj())

    def median_err(shots):
        errs = [
            frobenius(
                simulate_process_tomography(
                    ChannelSpec("xgate"), TomographyConfig(shots=shots, seed=s)
                ).mat
                - exact
            )
            for s in range(7)
        ]
        return float(np.median(errs))

    assert median_err(10**5) < median_err(10**3)


def test_tomography_deterministic_per_seed():
    cfg = TomographyConfig(shots=500, seed=42)
    a = simulate_process_tomography(ChannelSpec("iswap"), cfg)
    b = simulate_process_tomography(ChannelSpec("iswap"), cfg)
    assert np.array_equal(a.mat, b.mat)
    c = simulate_process_tomography(ChannelSpec("iswap"), TomographyConfig(500, 43))
    assert not np.array_equal(a.mat, c.mat)


def test_tomography_rejects_non_qubit_dimensions():
    from lindbladfit.channels import TransferMatrix

    with pytest.raises(DimensionMismatch):
        simulate_process_tomography(
            TransferMatrix(3, np.eye(9, dtype=complex)),
            TomographyConfig(shots=100, seed=0),
        )
