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

The closest-generator program sees a target only through its hermitian
part (the skew part adds a constant to the objective), so branches whose
targets share herm(T) share one solution and one distance.  The search
groups the branches into these herm classes first (``herm_classes``),
solves each class once at its first member in solve order, and gives
every member that solution and distance.  Members of one class therefore
tie exactly, and a class reports its lowest enumeration position: the
winner is the first class by (distance, lowest member position).
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
    herm,
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
    "herm_classes",
    "best_fit_lindbladian",
]

TWO_PI = 2.0 * np.pi

#: The exp/log round-trip residual above which R is rejected outright.
ROUND_TRIP_TOL = 1e-6

#: Distance below which the branch search may stop before exhausting the grid.
EARLY_STOP_DISTANCE = 1e-12

#: Tolerance of the final is-it-really-a-Lindbladian audit on the winner.
VERIFY_TOL = 1e-7

#: Branch targets whose hermitian parts lie within this distance, relative
#: to max(1, largest |herm T|), share one closest-generator solve.
CLASS_TOL = 1e-10


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


def herm_classes(targets: np.ndarray) -> np.ndarray:
    """Index of each target's class representative, for targets in solve order.

    Target i joins the first earlier representative whose hermitian part
    lies within CLASS_TOL * max(1, largest |herm T|) of its own, and
    otherwise represents a class of its own; so rep[i] <= i and the
    representatives are the indices with rep[i] == i.  Only hermitian parts
    within that tolerance share a class: a class whose members spread wider
    is split, two distinct classes (they differ by O(2*pi)) are never merged.
    """
    h = herm(targets)
    flat = h.reshape(len(h), -1)
    tol = CLASS_TOL * max(1.0, float(np.max(np.linalg.norm(flat, axis=1), initial=0.0)))
    rep = np.arange(len(h))
    todo = rep.copy()
    while todo.size:
        near = np.linalg.norm(flat[todo] - flat[todo[0]], axis=1) <= tol
        rep[todo[near]] = todo[0]
        todo = todo[~near]
    return rep


def _solve_classes(
    m: np.ndarray,
    targets: np.ndarray,
    order: np.ndarray,
    d: int,
    settings: Optional[solver.SolverSettings],
    chunk_size: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve (P1) once per herm class of the branch targets, in solve order.

    Returns the class of every branch in enumeration order (-1 where the
    class was never solved because the search stopped early), and each
    solved class's Choi-side solution and exponential's distance to M.
    """
    owner = herm_classes(targets[order])
    leaders = np.unique(owner)
    label = np.empty(len(order), dtype=int)
    label[order] = np.searchsorted(leaders, owner)

    # The first solve is a singleton chunk: for a snapshot that is already
    # an exponential of a Lindbladian, the leading branch lands below the
    # early-stop distance and the remaining grid is never touched.
    bounds = [0, 1]
    while bounds[-1] < len(leaders):
        bounds.append(min(bounds[-1] + chunk_size, len(leaders)))

    xs, dists = [], []
    for start, end in zip(bounds[:-1], bounds[1:]):
        chunk = order[leaders[start:end]]
        reports = solver.closest_lindbladian_batch(targets[chunk], d, settings)
        x_stack = np.stack([report.x_opt for report in reports])
        exps = expm(gamma_involution(x_stack))
        xs.append(x_stack)
        dists.append(np.linalg.norm(m[None, :, :] - exps, axis=(-2, -1)))
        if np.any(dists[-1] < EARLY_STOP_DISTANCE):
            break
    distances = np.concatenate(dists)
    label[label >= len(distances)] = -1
    return label, np.concatenate(xs), distances


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
    Every member of a herm class shares its representative's distance, so
    ties are broken by enumeration order.
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
    label, x_opts, distances = _solve_classes(m, targets, order, d, settings, chunk_size)

    # Each solved class reports its lowest enumeration position.
    first = np.full(len(distances), len(branches))
    solved = np.nonzero(label >= 0)[0]
    np.minimum.at(first, label[solved], solved)

    # Distances below the early-stop threshold are ties in exact arithmetic
    # (all branches of log R share the exponential R); rank them as zero so
    # they too are resolved by enumeration order instead of floating-point
    # jitter.
    ranked = np.where(distances >= EARLY_STOP_DISTANCE, distances, 0.0)
    for k in np.lexsort((first, ranked)):
        if distances[k] >= epsilon:
            break
        lindbladian = gamma_involution(x_opts[k])
        if is_lindbladian(lindbladian, tol=VERIFY_TOL).ok:
            return FitResult(
                lindbladian=lindbladian,
                distance=float(distances[k]),
                branch=tuple(int(v) for v in branches[first[k]]),
                basis_sample_id=basis_sample_id,
            )
    return None
