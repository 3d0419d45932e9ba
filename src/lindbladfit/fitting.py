"""Best-fit Lindbladian search over matrix-logarithm branches.

Given a tomographic snapshot M and a stack of matrices R_k with simple
spectra (M itself, a stack of one, or the basis-repaired samples produced
by the cluster pre-processing), every candidate generator lives on some
branch

    L_m = log R_k + 2*pi*i * sum_j m_j P_j,

with P_j the spectral projectors of R_k.  Each branch target is pushed
through the closest-generator program and the winner is the candidate
whose exponential lands closest to the *raw* snapshot M, accepted only
when that distance beats epsilon.  A sample whose logarithm fails its
audit is skipped; the search fails only when every sample does.

Branches are enumerated exhaustively over {-m_max..m_max}^(d^2), ordered
by increasing sum of |m_j| with lexicographic tie-break, so results are
deterministic.  The closest-generator program sees a target only through
its hermitian part (the skew part adds a constant to the objective), so
branches whose targets share herm(T) share one solution and one distance.
Each sample's branches are grouped into these herm classes first
(``herm_classes``), each class is solved once at its leader, its lowest
enumeration position, and every member gets that solution and distance.

All samples' class leaders go to the solver in one batch, sample-major,
and their exponentials are taken in one ``expm`` call.  Each sample's
winner is its first certified class by distance, then leader position;
the overall winner is the least (distance, sample), and its
``basis_sample_id`` is its position in the stack.

Every search (``nonmarkov`` and ``multisnap`` too) accepts by one rule:
``ranked`` ties values below ``TIE_TOL`` at zero, and ``first_certified``
walks that order to the first candidate whose exponential lands strictly
within epsilon of the raw snapshot (of each snapshot, for a series) and
whose generator (G - mu * omega_perp, for a noise rate) passes the
Lindblad test at ``VERIFY_TOL``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import solver
from .channels import is_lindbladian
from .errors import NumericalFailure, OutOfRange
from .linalg import (
    SpectralData,
    eig_full,
    expm,
    frobenius,
    gamma_involution,
    herm,
    matrix_log_principal,
    max_entangled,
    side_dim,
)

__all__ = [
    "BranchPolicy",
    "FitResult",
    "enumerate_branches",
    "checked_log",
    "branch_targets",
    "herm_classes",
    "search_setup",
    "ranked",
    "exp_distances",
    "first_certified",
    "best_fit_lindbladian",
]

TWO_PI = 2.0 * np.pi

#: The exp/log round-trip residual above which R is rejected outright.
ROUND_TRIP_TOL = 1e-6

#: Distances and noise rates below this are zeros up to round-off or
#: solver tolerance; ``ranked`` turns them into ties.
TIE_TOL = 1e-12

#: Tolerance of the is-it-really-a-Lindbladian audit on every search's winner.
VERIFY_TOL = 1e-7

#: Branch targets whose hermitian parts lie within this distance, relative
#: to max(1, largest |herm T|), share one closest-generator solve.  On the
#: benchmark's qubit panel the members of a class differ by rounding (at
#: most 9.7e-9) and distinct classes by O(2*pi) (at least 5.19).
CLASS_TOL = 1e-6


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
    basis_sample_id: Optional[int] = None  # stack position; None for a series fit


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


def branch_targets(
    l0: np.ndarray, spectral: SpectralData, branches: np.ndarray
) -> np.ndarray:
    """Choi-side targets (L_m)^Gamma for a whole stack of branch vectors."""
    projectors = spectral.projectors
    shifts = np.einsum("bj,jkl->bkl", branches.astype(complex), projectors)
    return gamma_involution(l0[None, :, :] + TWO_PI * 1j * shifts)


def herm_classes(targets: np.ndarray) -> np.ndarray:
    """Index of each target's class representative, in enumeration order.

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


def search_setup(m_snapshot, r, epsilon: float, policy: BranchPolicy) -> tuple:
    """What every single-snapshot search starts from: (snapshot matrix, d,
    branch vectors, [(k, ||log R_k||, branch targets of R_k)]).

    ``r`` is one matrix or a (K, n, n) stack of repaired samples.  A sample
    whose logarithm fails its audit (``checked_log``) is left out, since one
    ill-conditioned random basis must not abort the search; when every
    sample fails, ``NumericalFailure`` is raised.
    """
    if epsilon <= 0:
        raise OutOfRange(f"epsilon must be positive, got {epsilon}")
    m = np.asarray(m_snapshot, dtype=complex)
    stack = np.asarray(r, dtype=complex)
    if stack.ndim == 2:
        stack = stack[None]
    if stack.shape[1:] != m.shape:
        raise OutOfRange(
            f"snapshot and repaired matrix disagree: {m.shape} vs {stack.shape[1:]}"
        )
    d = side_dim(m.shape[0])
    audited, failure = [], None
    for k, repaired in enumerate(stack):
        try:
            audited.append((k, *checked_log(repaired)))
        except NumericalFailure as exc:
            failure = exc
    if not audited:
        raise NumericalFailure(
            f"all {len(stack)} samples failed the logarithm audit; last: {failure}"
        ) from failure
    branches = np.array(list(enumerate_branches(policy, m.shape[0])), dtype=int)
    return m, d, branches, [
        (k, frobenius(l0), branch_targets(l0, spectral, branches))
        for k, spectral, l0 in audited
    ]


def ranked(values: np.ndarray) -> np.ndarray:
    """``values`` with entries below ``TIE_TOL`` set to 0.0, so that ties in
    exact arithmetic (all branches of log R share the exponential R) go by
    the search's own order instead of floating-point jitter."""
    return np.where(values >= TIE_TOL, values, 0.0)


def exp_distances(snapshots: np.ndarray, times, generators: np.ndarray) -> np.ndarray:
    """(B, q) distances ||exp(t_c G_b) - M_c||_F, from one ``expm`` call."""
    exps = expm(np.asarray(times)[None, :, None, None] * generators[:, None])
    return np.linalg.norm(snapshots[None] - exps, axis=(-2, -1))


def first_certified(order, within, generators, mus=None) -> Optional[int]:
    """The first k of ``order`` that lands ``within`` epsilon and whose
    generator (less ``mus[k]`` * omega_perp, for a noise rate) passes the
    Lindblad test at ``VERIFY_TOL``; None when no k does."""
    if mus is not None:
        omega_perp = max_entangled(side_dim(generators.shape[-1])).omega_perp
    for k in order[within[order]]:
        generator = generators[k] if mus is None else generators[k] - mus[k] * omega_perp
        if is_lindbladian(generator, tol=VERIFY_TOL).ok:
            return int(k)
    return None


def best_fit_lindbladian(
    m_snapshot,
    r: np.ndarray,
    epsilon: float,
    policy: BranchPolicy = BranchPolicy(),
    *,
    sample_fits: Optional[dict] = None,
) -> tuple[Optional[FitResult], int]:
    """Search all logarithm branches of every sample for the Lindbladian
    closest to M.

    ``r`` is one matrix or a (K, n, n) stack of repaired samples.  Returns
    the winner, the least (distance, sample) of the samples' winners whose
    exponential lands strictly within ``epsilon`` of the raw snapshot (None
    when no branch of any sample does), and the number of (P1) solves the
    solver reported as MaxIters.  When ``sample_fits`` is given, it receives
    each audited sample's own winner (or None), keyed by stack position;
    samples that failed the logarithm audit are absent.
    """
    m, d, branches, searches = search_setup(m_snapshot, r, epsilon, policy)
    leaders = [np.unique(herm_classes(targets)) for _, _, targets in searches]
    reports = solver.closest_lindbladian_batch(
        np.concatenate([t[lead] for (_, _, t), lead in zip(searches, leaders)]), d
    )
    maxiters = sum(report.status == solver.MAX_ITERS for report in reports)
    generators = gamma_involution(np.stack([report.x_opt for report in reports]))
    distances = exp_distances(m[None], np.ones(1), generators)[:, 0]

    fits = {}
    cuts = np.cumsum([len(lead) for lead in leaders])[:-1]
    for (k, _, _), lead, gens, dists in zip(
        searches, leaders, np.split(generators, cuts), np.split(distances, cuts)
    ):
        # Leaders follow enumeration order, so a stable sort breaks ties by it.
        c = first_certified(np.argsort(ranked(dists), kind="stable"), dists < epsilon, gens)
        fits[k] = None if c is None else FitResult(
            lindbladian=gens[c],
            distance=float(dists[c]),
            branch=tuple(int(v) for v in branches[lead[c]]),
            basis_sample_id=k,
        )
    if sample_fits is not None:
        sample_fits.update(fits)
    best = min(
        (fit for fit in fits.values() if fit is not None),
        key=lambda fit: (fit.distance, fit.basis_sample_id),
        default=None,
    )
    return best, maxiters
