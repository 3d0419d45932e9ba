"""Best-fit Lindbladian search over matrix-logarithm branches.

Given a tomographic snapshot M and a matrix R with simple spectrum (either
M itself or a basis-repaired stand-in produced by the cluster
pre-processing), every candidate generator lives on some branch

    L_m = log R + 2*pi*i * sum_j m_j P_j,

with P_j the spectral projectors of R.  Each branch target is pushed
through the closest-generator program and the winner is the candidate
whose exponential lands closest to the *raw* snapshot M, accepted only
when that distance beats epsilon.

Branches are enumerated exhaustively over {-m_max..m_max}^(d^2), ordered
by increasing sum of |m_j| with lexicographic tie-break, so results are
deterministic.  As a pure performance measure, branches whose shifted
log-spectrum stays closed under complex conjugation are *solved first*
(only those can reach distance zero for a hermiticity-preserving
snapshot); the final reduction still ranks every solved branch by
(distance, enumeration position), so the ordering cannot change the
answer.  Early termination is allowed only once a branch gets within
1e-12 of the snapshot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import solver
from .channels import TransferMatrix, is_lindbladian
from .errors import NumericalFailure, OutOfRange
from .linalg import (
    SpectralData,
    eig_full,
    expm,
    frobenius,
    gamma_involution,
    matrix_log_principal,
    side_dim,
)

__all__ = [
    "BranchPolicy",
    "FitResult",
    "enumerate_branches",
    "snapshot_matrix",
    "checked_log",
    "branch_targets",
    "best_fit_lindbladian",
]

TWO_PI = 2.0 * np.pi

#: The exp/log round-trip residual above which R is rejected outright.
ROUND_TRIP_TOL = 1e-6

#: Distance below which the branch search may stop before exhausting the grid.
EARLY_STOP_DISTANCE = 1e-12

#: Tolerance of the final is-it-really-a-Lindbladian audit on the winner.
VERIFY_TOL = 1e-7


@dataclass(frozen=True)
class BranchPolicy:
    """How far to wander from the principal logarithm.

    ``m_max`` bounds each branch index; ``max_branches`` optionally caps the
    enumeration to a deterministic prefix of the canonical order (useful in
    higher dimension, where the full grid grows as (2*m_max+1)^(d^2) but the
    low-|m| shells it shares with any larger ``m_max`` already contain every
    branch that matters in practice).
    """

    m_max: int = 1
    max_branches: Optional[int] = None

    def validate(self) -> None:
        if self.m_max < 0:
            raise OutOfRange(f"m_max must be >= 0, got {self.m_max}")
        if self.max_branches is not None and self.max_branches < 1:
            raise OutOfRange(
                f"max_branches must be positive, got {self.max_branches}"
            )


@dataclass
class FitResult:
    """A Lindbladian whose exponential reproduces the snapshot within epsilon."""

    lindbladian: np.ndarray
    distance: float
    branch: tuple[int, ...]
    basis_sample_id: Optional[int] = None


def _shell(dim: int, m_max: int, total: int) -> Iterator[tuple[int, ...]]:
    """All vectors in {-m_max..m_max}^dim with sum|m_j| == total, lex order."""

    def rec(pos: int, rem: int, prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if pos == dim:
            if rem == 0:
                yield tuple(prefix)
            return
        tail_cap = (dim - pos - 1) * m_max
        for v in range(-m_max, m_max + 1):
            left = rem - abs(v)
            if 0 <= left <= tail_cap:
                prefix.append(v)
                yield from rec(pos + 1, left, prefix)
                prefix.pop()

    return rec(0, total, [])


def enumerate_branches(policy: BranchPolicy, dim: int) -> Iterator[tuple[int, ...]]:
    """Yield all branch vectors, sorted by sum|m_j| then lexicographically.

    Lazy: with ``max_branches`` set, later shells are never materialized.
    """
    policy.validate()
    if dim < 1:
        raise OutOfRange(f"dimension must be positive, got {dim}")
    shells = (
        _shell(dim, policy.m_max, total)
        for total in range(policy.m_max * dim + 1)
    )
    chained = itertools.chain.from_iterable(shells)
    if policy.max_branches is not None:
        chained = itertools.islice(chained, policy.max_branches)
    return chained


def snapshot_matrix(m_snapshot) -> np.ndarray:
    """The complex matrix of a snapshot given as a TransferMatrix or an array."""
    if isinstance(m_snapshot, TransferMatrix):
        return m_snapshot.mat
    return np.asarray(m_snapshot, dtype=complex)


def checked_log(r: np.ndarray) -> tuple[SpectralData, np.ndarray]:
    """Eigendecompose R, take the principal log, and audit the round trip."""
    spectral = eig_full(r)
    l0 = matrix_log_principal(spectral)
    round_trip = frobenius(r - expm(l0)) / max(1.0, frobenius(r))
    if round_trip > ROUND_TRIP_TOL:
        raise NumericalFailure(
            f"exp(log R) misses R by {round_trip:.3e}; "
            "spectrum too ill-conditioned for a branch search"
        )
    return spectral, l0


def _pairing_first_order(
    log_eigs: np.ndarray, branches: np.ndarray
) -> np.ndarray:
    """Indices of `branches` with conjugation-respecting shifts first.

    A hermiticity-preserving generator has a spectrum closed under complex
    conjugation, so branches whose shifted log-eigenvalues break that
    closure cannot fit an exactly hermiticity-preserving snapshot; they are
    still solved, just later.  Order within each class is preserved.
    """
    shifted = log_eigs[None, :] + TWO_PI * 1j * branches
    mismatch = np.abs(shifted[:, :, None] - np.conj(shifted)[:, None, :])
    tol = 1e-8 * max(1.0, float(np.max(np.abs(log_eigs))))
    closed = mismatch.min(axis=2).max(axis=1) < tol
    idx = np.arange(len(branches))
    return np.concatenate([idx[closed], idx[~closed]])


def branch_targets(
    l0: np.ndarray, spectral: SpectralData, branches: np.ndarray
) -> np.ndarray:
    """Choi-side targets (L_m)^Gamma for a whole stack of branch vectors."""
    projectors = spectral.projectors
    shifts = np.einsum("bj,jkl->bkl", branches.astype(complex), projectors)
    return gamma_involution(l0[None, :, :] + TWO_PI * 1j * shifts)


def best_fit_lindbladian(
    m_snapshot,
    r: np.ndarray,
    epsilon: float,
    policy: Optional[BranchPolicy] = None,
    settings: Optional[solver.SolverSettings] = None,
    *,
    basis_sample_id: Optional[int] = None,
    chunk_size: int = 256,
) -> Optional[FitResult]:
    """Search all logarithm branches of R for the Lindbladian closest to M.

    Returns the minimal-distance result whose exponential lands strictly
    within ``epsilon`` of the raw snapshot, or None when no branch does.
    Ties in distance are broken by enumeration order.
    """
    if epsilon <= 0:
        raise OutOfRange(f"epsilon must be positive, got {epsilon}")
    if policy is None:
        policy = BranchPolicy()
    m = snapshot_matrix(m_snapshot)
    r = np.asarray(r, dtype=complex)
    if r.shape != m.shape:
        raise OutOfRange(
            f"snapshot and repaired matrix disagree: {m.shape} vs {r.shape}"
        )
    d = side_dim(r.shape[0])

    spectral, l0 = checked_log(r)
    branches = np.array(list(enumerate_branches(policy, r.shape[0])), dtype=int)
    order = _pairing_first_order(np.log(spectral.eigenvalues), branches)
    targets = branch_targets(l0, spectral, branches)

    # The first solve is a singleton chunk: for a snapshot that is already
    # an exponential of a Lindbladian, the leading branch lands below the
    # early-stop distance and the remaining grid is never touched.
    bounds = [0, 1]
    while bounds[-1] < len(order):
        bounds.append(min(bounds[-1] + chunk_size, len(order)))

    # (distance, enumeration position, Choi-side solution) per solved branch
    candidates: list[tuple[float, int, np.ndarray]] = []
    stop = False
    for start, end in zip(bounds[:-1], bounds[1:]):
        chunk = order[start:end]
        reports = solver.closest_lindbladian_batch(targets[chunk], d, settings)
        x_stack = np.stack([rep.x_opt for rep in reports])
        exps = expm(gamma_involution(x_stack))
        distances = np.linalg.norm(m[None, :, :] - exps, axis=(-2, -1))
        for pos_in_chunk, enum_pos in enumerate(chunk):
            dist = float(distances[pos_in_chunk])
            candidates.append((dist, int(enum_pos), x_stack[pos_in_chunk]))
            if dist < EARLY_STOP_DISTANCE:
                stop = True
        if stop:
            break

    # Distances below the early-stop threshold are ties in exact arithmetic
    # (all branches of log R share the exponential R); rank them as zero so
    # the strict-improvement rule resolves them by enumeration order instead
    # of floating-point jitter.
    def rank(candidate: tuple[float, int, np.ndarray]) -> tuple[float, int]:
        dist, enum_pos, _ = candidate
        return (dist if dist >= EARLY_STOP_DISTANCE else 0.0, enum_pos)

    for dist, enum_pos, x_opt in sorted(candidates, key=rank):
        if dist >= epsilon:
            break
        lindbladian = gamma_involution(x_opt)
        if is_lindbladian(lindbladian, tol=VERIFY_TOL).ok:
            return FitResult(
                lindbladian=lindbladian,
                distance=dist,
                branch=tuple(int(v) for v in branches[enum_pos]),
                basis_sample_id=basis_sample_id,
            )
    return None
