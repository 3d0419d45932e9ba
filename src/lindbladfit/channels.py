"""Benchmark channels, Lindblad generators, and the tomography simulator.

Transfer matrices follow the row-stacking convention of :mod:`.linalg`:
conjugation by a unitary U is ``kron(U, U.conj())`` and a Kraus channel
``rho -> sum_a A_a rho A_a^dag`` is ``sum_a kron(A_a, A_a.conj())``.

The tomography simulator replaces a real device: it prepares the
informationally complete product-state set {|0>, |1>, |+>, |+i>}^n, applies
the exact channel, samples Pauli-basis measurement outcomes (multinomial,
finite shots), reconstructs each output state by linear inversion and solves
for the transfer matrix.  Sampling uses a counter-based RNG keyed on
(seed, preparation, setting) so the result is identical no matter how the
settings are scheduled or parallelized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InputError,
    NotCompletelyPositive,
    NotHermitianHamiltonian,
    NotUnitary,
    OutOfRange,
)
from .linalg import (
    frobenius,
    gamma_involution,
    herm,
    max_entangled,
    one_norm,
    partial_trace_first,
    side_dim,
)

__all__ = [
    "TransferMatrix",
    "LindbladCheck",
    "ChannelSpec",
    "TomographyConfig",
    "unitary_transfer",
    "identity_transfer",
    "depolarizing_transfer",
    "unital_transfer",
    "depolarizing_cz_transfer",
    "iswap_gate",
    "x_gate",
    "lindblad_generator",
    "random_lindblad_generator",
    "is_lindbladian",
    "simulate_process_tomography",
]

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: Frobenius defect of U^dag U from I above which `unitary_transfer` refuses a gate.
_UNITARY_TOL = 1e-10
#: Slack of the complete-positivity inequalities in `unital_transfer`.
_CP_TOL = 1e-12
#: Relative antihermitian part above which `lindblad_generator` refuses H.
_HERM_TOL = 1e-10
#: Jump operators of a `random_lindblad_generator`.
_N_JUMPS = 2


def x_gate() -> np.ndarray:
    return _X.copy()


def iswap_gate() -> np.ndarray:
    """The two-qubit ISWAP unitary."""
    g = np.eye(4, dtype=complex)
    g[1, 1] = g[2, 2] = 0.0
    g[1, 2] = g[2, 1] = 1j
    return g


# ----------------------------------------------------------------------
# Transfer matrices
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TransferMatrix:
    """A channel snapshot: d^2 x d^2 matrix in the elementary basis."""

    d: int
    mat: np.ndarray

    def cpt_residuals(self) -> tuple[float, float, float]:
        """(hermiticity, positivity, trace) defects of the Choi form."""
        choi = gamma_involution(self.mat)
        herm_res = frobenius(choi - choi.conj().T)
        eigs = np.linalg.eigvalsh(herm(choi))
        pos_res = max(0.0, -float(eigs[0]))
        trace_res = frobenius(partial_trace_first(choi) - np.eye(self.d))
        return herm_res, pos_res, trace_res


def unitary_transfer(u: np.ndarray) -> TransferMatrix:
    """Transfer matrix U (x) U* of conjugation by a unitary."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatch(f"gate must be square, got {u.shape}")
    if frobenius(u.conj().T @ u - np.eye(u.shape[0])) > _UNITARY_TOL:
        raise NotUnitary("gate is not unitary within tolerance")
    return TransferMatrix(u.shape[0], np.kron(u, u.conj()))


def identity_transfer(d: int = 2) -> TransferMatrix:
    return TransferMatrix(d, np.eye(d * d, dtype=complex))


def _kraus_transfer(d: int, kraus: Sequence[np.ndarray]) -> np.ndarray:
    mat = np.zeros((d * d, d * d), dtype=complex)
    for a in kraus:
        mat += np.kron(a, a.conj())
    return mat


def depolarizing_transfer(p: float) -> TransferMatrix:
    """One-qubit depolarizing channel rho -> (1-p) rho + (p/3)(X rho X + ...).

    Spectrum {1, 1 - 4p/3 (threefold)}.
    """
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"depolarizing probability {p} outside [0, 1]")
    kraus = [
        np.sqrt(1 - p) * _I2,
        np.sqrt(p / 3) * _X,
        np.sqrt(p / 3) * _Y,
        np.sqrt(p / 3) * _Z,
    ]
    return TransferMatrix(2, _kraus_transfer(2, kraus))


def unital_transfer(gamma: Sequence[float], t: float = 1.0) -> TransferMatrix:
    """Unital Pauli channel evolved for time t from constant rates gamma.

    The evolution has Kraus operators ``A_0 = (1/2) sqrt(1+G1+G2+G3) I`` and
    ``A_i = (1/2) sqrt(1 + G_i - G_j - G_k) sigma_i`` with
    ``G_i = exp(-t (gamma_j + gamma_k))``, {i,j,k} a permutation of {1,2,3}.
    Complete positivity requires ``G_i + G_j <= 1 + G_k`` for every
    permutation; the underlying semigroup is Markovian iff all rates are
    positive.
    """
    if len(gamma) != 3:
        raise OutOfRange("unital channel needs exactly three rates")
    g1, g2, g3 = (float(g) for g in gamma)
    with np.errstate(over="ignore"):  # inf caps fail the CP check cleanly
        caps = np.array(
            [np.exp(-t * (g2 + g3)), np.exp(-t * (g1 + g3)), np.exp(-t * (g1 + g2))]
        )
    for i, j, k in itertools.permutations(range(3)):
        if caps[i] + caps[j] > 1.0 + caps[k] + _CP_TOL:
            raise NotCompletelyPositive(
                f"Gamma_{i + 1} + Gamma_{j + 1} = {caps[i] + caps[j]:.6f} exceeds "
                f"1 + Gamma_{k + 1} = {1 + caps[k]:.6f}"
            )
    signs = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    )
    weights = 0.5 * np.sqrt(np.maximum(0.0, 1.0 + signs @ caps))
    kraus = [w * s for w, s in zip(weights, (_I2, _X, _Y, _Z))]
    return TransferMatrix(2, _kraus_transfer(2, kraus))


def depolarizing_cz_transfer(
    p_cz: float, p_xx: float, p_yy: float, p_zz: float
) -> TransferMatrix:
    """Two-qubit mixture: CZ with p_cz, single-qubit X/Y/Z noise otherwise.

    With probability p_cz the CZ gate is applied, with p_xx / p_yy / p_zz a
    Pauli X / Y / Z on the first qubit, and with the remaining probability
    nothing.  The benchmark parameters (0.1, 0.07, 0.08, 0.09) give six
    two-fold degenerate eigenvalues {1, 0.93, 0.7, 0.67, 0.57, 0.47}
    (to two decimals) plus four simple ones {0.68, 0.66, 0.48, 0.46}.
    """
    probs = np.array([p_cz, p_xx, p_yy, p_zz], dtype=float)
    if np.any(probs < 0) or probs.sum() > 1.0 + 1e-12:
        raise OutOfRange("mixture probabilities must be nonnegative with sum <= 1")
    cz = np.diag(np.array([1, 1, 1, -1], dtype=complex))
    gates = [cz, np.kron(_X, _I2), np.kron(_Y, _I2), np.kron(_Z, _I2)]
    mat = (1.0 - probs.sum()) * np.eye(16, dtype=complex)
    for p, g in zip(probs, gates):
        mat += p * np.kron(g, g.conj())
    return TransferMatrix(4, mat)


# ----------------------------------------------------------------------
# Lindblad generators
# ----------------------------------------------------------------------

def lindblad_generator(h: np.ndarray, jumps: Sequence[np.ndarray] = ()) -> np.ndarray:
    """Transfer-matrix form of ``L(rho) = i[rho, H] + sum_a (J rho J^dag - (1/2){J^dag J, rho})``.

    The commutator sign convention matches generators acting as
    ``d rho / dt = L(rho)``; with that convention ``exp(t L)`` is completely
    positive and trace preserving for every t >= 0.
    """
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    if frobenius(h - h.conj().T) > _HERM_TOL * max(1.0, frobenius(h)):
        raise NotHermitianHamiltonian("Hamiltonian must be hermitian")
    eye = np.eye(d, dtype=complex)
    # i [rho, H]  ->  i (kron(I, H^T) - kron(H, I)) acting on vec(rho)
    mat = 1j * (np.kron(eye, h.T) - np.kron(h, eye))
    for j in jumps:
        j = np.asarray(j, dtype=complex)
        jj = j.conj().T @ j
        mat += np.kron(j, j.conj()) - 0.5 * (np.kron(jj, eye) + np.kron(eye, jj.T))
    return mat


def random_lindblad_generator(d: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random generator for round-trip tests: gaussian H and jump operators."""
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = scale * herm(raw)
    jumps = [
        scale
        * 0.5
        * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        for _ in range(_N_JUMPS)
    ]
    return lindblad_generator(h, jumps)


@dataclass(frozen=True)
class LindbladCheck:
    """Residuals of the three Lindblad-generator conditions.

    hermiticity : Frobenius defect of the Choi form from being hermitian.
    ccp : violation of conditional complete positivity, i.e.
        max(0, -lambda_min) of the Choi form compressed away from the
        maximally entangled direction.
    trace : entrywise one-norm of the partial trace of the Choi form.
    """

    ok: bool
    hermiticity: float
    ccp: float
    trace: float

    @property
    def residuals(self) -> tuple[float, float, float]:
        return self.hermiticity, self.ccp, self.trace


def is_lindbladian(l: np.ndarray, tol: float = 1e-10) -> LindbladCheck:
    """Check the three conditions for l to generate a Markovian semigroup."""
    l = np.asarray(l, dtype=complex)
    d = side_dim(l.shape[0])
    choi = gamma_involution(l)
    herm_res = frobenius(choi - choi.conj().T)
    perp = max_entangled(d).omega_perp
    compressed = perp @ herm(choi) @ perp
    ccp_res = max(0.0, -float(np.linalg.eigvalsh(compressed)[0]))
    trace_res = one_norm(partial_trace_first(choi))
    ok = herm_res <= tol and ccp_res <= tol and trace_res <= tol
    return LindbladCheck(ok, herm_res, ccp_res, trace_res)


# ----------------------------------------------------------------------
# Channel specification (CLI-facing tagged union)
# ----------------------------------------------------------------------

_BENCHMARK_GAMMA = (-200.0, 201.0, 200.5)
_BENCHMARK_CZ = (0.1, 0.07, 0.08, 0.09)


@dataclass(frozen=True)
class ChannelSpec:
    """Serializable description of a channel the simulator can prepare.

    kind is one of ``xgate``, ``iswap``, ``identity``, ``depolarizing``,
    ``unital``, ``depolarizing-cz``; params hold the kind-specific
    numbers (JSON-compatible).
    """

    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def transfer(self) -> TransferMatrix:
        p = self.params
        if self.kind == "xgate":
            return unitary_transfer(x_gate())
        if self.kind == "iswap":
            return unitary_transfer(iswap_gate())
        if self.kind == "identity":
            return identity_transfer(int(p.get("d", 2)))
        if self.kind == "depolarizing":
            return depolarizing_transfer(float(p["p"]))
        if self.kind == "unital":
            gamma = p.get("gamma", _BENCHMARK_GAMMA)
            return unital_transfer([float(g) for g in gamma], float(p.get("t", 1.0)))
        if self.kind == "depolarizing-cz":
            probs = p.get("probs", _BENCHMARK_CZ)
            return depolarizing_cz_transfer(*(float(x) for x in probs))
        raise InputError(f"unknown channel kind {self.kind!r}")


# ----------------------------------------------------------------------
# Finite-shot process tomography
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TomographyConfig:
    shots: int
    seed: int

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise OutOfRange("shots must be >= 1")


_PREP_KETS = [
    np.array([1.0, 0.0], dtype=complex),                 # |0>
    np.array([0.0, 1.0], dtype=complex),                 # |1>
    np.array([1.0, 1.0], dtype=complex) / np.sqrt(2),    # |+>
    np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2),   # |+i>
]

# Measurement bases per qubit: eigenvectors of X, Y and Z, columns ordered
# (+1 eigenvector, -1 eigenvector).
_MEAS_BASES = [
    np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),     # X
    np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2),   # Y
    np.eye(2, dtype=complex),                                    # Z
]


def _product_columns(factors: Sequence[np.ndarray]) -> np.ndarray:
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def _stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for one (preparation, setting) pair."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream,)))
    )


def _estimate_state(
    n_qubits: int, counts: np.ndarray, shots: int
) -> np.ndarray:
    """Linear-inversion state estimate from per-setting outcome counts.

    counts has shape (3^n, 2^n): for each measurement setting (base-3 digit
    string over X/Y/Z) the histogram over outcome bitstrings.  Every Pauli
    string's expectation is averaged over all settings that measure it.
    """
    dim = 2 ** n_qubits
    freqs = counts / shots
    settings = list(itertools.product(range(3), repeat=n_qubits))
    outcome_bits = np.array(
        [[(o >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
         for o in range(dim)]
    )
    outcome_signs = 1.0 - 2.0 * outcome_bits          # (outcome, qubit)

    rho = np.zeros((dim, dim), dtype=complex)
    # Pauli strings indexed by per-qubit labels 0..3 = I, X, Y, Z.
    for pauli in itertools.product(range(4), repeat=n_qubits):
        support = [q for q, s in enumerate(pauli) if s != 0]
        if not support:
            expval = 1.0
        else:
            compatible = [
                idx
                for idx, setting in enumerate(settings)
                if all(setting[q] == pauli[q] - 1 for q in support)
            ]
            signs = np.prod(outcome_signs[:, support], axis=1)
            expval = float(
                np.mean([freqs[idx] @ signs for idx in compatible])
            )
        op = _product_columns(
            [(_I2, _X, _Y, _Z)[s] for s in pauli]
        )
        rho += expval * op
    return rho / dim


def simulate_process_tomography(
    spec: ChannelSpec | TransferMatrix, cfg: TomographyConfig
) -> TransferMatrix:
    """Finite-shot tomographic snapshot of a channel.

    Deterministic for a fixed seed, and independent of execution order:
    each (preparation, measurement setting) pair draws from its own
    counter-based stream keyed on (seed, pair index).
    """
    exact = spec.transfer() if isinstance(spec, ChannelSpec) else spec
    d = exact.d
    n_qubits = int(round(np.log2(d)))
    if 2 ** n_qubits != d:
        raise DimensionMismatch("tomography simulator supports qubit systems only")

    preps = [
        _product_columns([_PREP_KETS[k] for k in combo])
        for combo in itertools.product(range(4), repeat=n_qubits)
    ]
    settings = [
        _product_columns([_MEAS_BASES[b] for b in combo])
        for combo in itertools.product(range(3), repeat=n_qubits)
    ]

    n_settings = len(settings)
    v_in = np.empty((d * d, len(preps)), dtype=complex)
    v_out = np.empty((d * d, len(preps)), dtype=complex)
    for p_idx, ket in enumerate(preps):
        rho_in = np.outer(ket, ket.conj())
        rho_out = (exact.mat @ rho_in.reshape(-1)).reshape(d, d)
        counts = np.empty((n_settings, d))
        for s_idx, basis in enumerate(settings):
            probs = np.real(np.einsum("io,ij,jo->o", basis.conj(), rho_out, basis))
            probs = np.clip(probs, 0.0, None)
            probs /= probs.sum()
            rng = _stream_rng(cfg.seed, p_idx * n_settings + s_idx)
            counts[s_idx] = rng.multinomial(cfg.shots, probs)
        v_in[:, p_idx] = rho_in.reshape(-1)
        v_out[:, p_idx] = _estimate_state(n_qubits, counts, cfg.shots).reshape(-1)

    mat = v_out @ np.linalg.inv(v_in)
    return TransferMatrix(d, mat)
