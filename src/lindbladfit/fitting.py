"""Best-fit Lindbladian search over matrix-logarithm branches.

Given a tomographic snapshot M and the audited logarithms of a stack of
matrices R_k with simple spectra (M itself, or the basis-repaired samples
produced by the cluster pre-processing; ``checked_logs``), every candidate
generator lives on some branch

    L_m = log R_k + 2*pi*i * sum_j m_j P_j,

with P_j the spectral projectors of R_k.  Each branch target is pushed
through the closest-generator program, and each sample's fit is the
certified candidate whose exponential lands closest to the *raw* snapshot
M.  A sample whose logarithm failed its audit is skipped; the search fails
only when every sample did.  The search applies no acceptance radius: the
caller ranks the samples' fits and holds the winner against epsilon.

Branches are enumerated exhaustively over {-m_max..m_max}^(d^2), ordered
by increasing sum of |m_j| with lexicographic tie-break, so results are
deterministic.  The closest-generator program sees a target only through
its hermitian part (the skew part adds a constant to the objective),
herm Gamma(log R) + sum_j m_j A_j with A_j = herm(2*pi*i Gamma(P_j)).  A
real eigenvalue of a hermiticity-preserving R has A_j = 0 and a conjugate
pair A_k = -A_j, so ``branch_classes`` reads each sample's herm classes off
its spectrum; each class is solved once at its leader, its lowest
enumeration position, and every member gets that solution and distance.

A sample whose principal logarithm is already a Lindbladian
(``principal_first``: the logarithm of Markovian data) is tried at its
principal branch first: these samples' principal targets go to the solver
in one batch, with one ``expm`` call for their exponentials.  A principal
fit that lands below ``TIE_TOL`` and certifies is that sample's fit, since
the principal branch is class 0, first in enumeration order, and ranks
first under the tie rule; the sample builds no other branch target.  The
other samples' class leaders, less a principal target already solved, go
to the solver in one more batch, sample-major, with one more ``expm``
call.  Each of those samples' fits is its first certified class by
distance, then leader position.  The fits are keyed by position in the
stack, in stack order.

Every search (``nonmarkov`` and ``multisnap`` too) certifies by one rule:
``ranked`` ties values below ``TIE_TOL`` at zero, and ``first_certified``
walks that order to the first candidate whose exponential lands strictly
within a radius of the raw snapshot (of each snapshot, for a series) and
whose generator (G - mu * omega_perp, for a noise rate) passes the
Lindblad test at ``VERIFY_TOL``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import solver
from .channels import is_lindbladian, lindblad_generator
from .errors import NumericalFailure, OutOfRange, SingularInput
from .linalg import (
    SpectralData,
    expm,
    frobenius,
    gamma_involution,
    herm,
    matrix_log_principal,
    max_entangled,
    side_dim,
)
from .preprocess import perturb_to_nd2

__all__ = [
    "BranchPolicy",
    "FitResult",
    "enumerate_branches",
    "branch_grid",
    "checked_logs",
    "branch_targets",
    "class_keys",
    "branch_classes",
    "search_setup",
    "ranked",
    "exp_distances",
    "first_certified",
    "principal_first",
    "best_fit_lindbladian",
    "unitary_frame",
]

TWO_PI = 2.0 * np.pi

#: The exp/log round-trip residual above which R is rejected outright.
ROUND_TRIP_TOL = 1e-6

#: Distances and noise rates below this are zeros up to round-off or
#: solver tolerance; ``ranked`` turns them into ties.
TIE_TOL = 1e-12

#: Tolerance of the is-it-really-a-Lindbladian audit on every search's winner.
VERIFY_TOL = 1e-7

#: Branch targets share one closest-generator solve only when their
#: hermitian parts lie within this distance, relative to max(1, |herm
#: Gamma(log R)|), split by `branch_classes` into one budget per slot.  On
#: the benchmark's qubit panel the members of a class differ by rounding (at
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
    """A certified Lindbladian and the distance of its exponential to the
    snapshot; ``branch`` is None for a fit with no branch of log M
    (``unitary_frame``)."""

    lindbladian: np.ndarray
    distance: float
    branch: Optional[tuple[int, ...]]


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


@functools.lru_cache(maxsize=8)
def branch_grid(policy: BranchPolicy, dim: int) -> np.ndarray:
    """``enumerate_branches(policy, dim)`` as a read-only (B, dim) array,
    built once per policy and dimension and shared by every search."""
    grid = np.array(list(enumerate_branches(policy, dim)), dtype=int)
    grid.setflags(write=False)
    return grid


def checked_logs(stack: np.ndarray, spectra: Sequence[SpectralData] = ()) -> list:
    """Eigendecompose each matrix of a (K, n, n) stack, take its principal
    log and audit the round trip to the matrix, with one ``expm`` call for
    all round trips: (spectral data, principal log) per matrix, or the
    ``NumericalFailure`` that rejects it.  A matrix with a degenerate
    spectrum is first nudged onto a simple one by
    ``preprocess.perturb_to_nd2``, the nudge the repair gives a snapshot,
    which eigendecomposes a simple matrix once.  A zero eigenvalue, which
    has no logarithm, fails the audit too.  ``spectra`` holds the
    `eig_full` of the first matrices where the caller already has it; only
    the others are eigendecomposed here."""
    audited = []
    for k, r in enumerate(stack):
        try:
            spectral = spectra[k] if k < len(spectra) else perturb_to_nd2(r)[1]
            audited.append((spectral, matrix_log_principal(spectral)))
        except NumericalFailure as exc:
            audited.append(exc)
        except SingularInput as exc:
            audited.append(NumericalFailure(str(exc)))
    ok = [k for k, a in enumerate(audited) if not isinstance(a, NumericalFailure)]
    if ok:
        exps = expm(np.stack([audited[k][1] for k in ok]))
        for k, e in zip(ok, exps):
            round_trip = frobenius(stack[k] - e) / max(1.0, frobenius(stack[k]))
            if round_trip > ROUND_TRIP_TOL:
                audited[k] = NumericalFailure(
                    f"exp(log R) misses R by {round_trip:.3e}; "
                    "spectrum too ill-conditioned for a branch search"
                )
    return audited


def branch_targets(
    l0: np.ndarray, spectral: SpectralData, branches: np.ndarray
) -> np.ndarray:
    """Choi-side targets (L_m)^Gamma for a whole stack of branch vectors.

    Gamma permutes entries, so (L_m)^Gamma = L0^Gamma + 2 pi i sum_j m_j
    P_j^Gamma: the stack is built in place, with no second stack-sized
    array."""
    n = len(l0)
    shifts = gamma_involution(spectral.projectors).reshape(n, n * n)
    targets = (branches.astype(complex) @ shifts).reshape(-1, n, n)
    np.multiply(TWO_PI * 1j, targets, out=targets)
    return np.add(gamma_involution(l0)[None, :, :], targets, out=targets)


def class_keys(l0: np.ndarray, spectral: SpectralData, m_max: int) -> np.ndarray:
    """The (n, c) integer key columns of a sample's herm classes over
    branches with |m_j| <= ``m_max``: branches m and m' share a class when
    m @ keys == m' @ keys.

    Each slot shift A_j = herm(2 pi i Gamma(P_j)) has the budget tau =
    CLASS_TOL * max(1, |herm Gamma(l0)|) / (2 m_max n).  In slot order, a
    shift with |A_j| <= tau is dropped (a real eigenvalue); otherwise it
    pairs with the unused slot k that minimises |A_j + A_k|, when that is
    <= tau (a conjugate pair), for the key m_j - m_k, and is the key m_j
    alone when none does.  At most n residuals of at most tau are left out,
    each times a |m_j - m'_j| <= 2 m_max, so a class's hermitian targets lie
    within CLASS_TOL * max(1, |herm Gamma(l0)|) of each other.
    """
    n, eye, keys = len(l0), np.eye(len(l0), dtype=int), []
    shifts = herm(TWO_PI * 1j * gamma_involution(spectral.projectors)).reshape(n, n * n)
    budget = CLASS_TOL * max(1.0, frobenius(herm(gamma_involution(l0)))) / (2 * m_max * n)
    unused = np.linalg.norm(shifts, axis=1) > budget
    for j in np.flatnonzero(unused):
        if not unused[j]:  # paired with an earlier slot
            continue
        unused[j] = False
        others = np.flatnonzero(unused)
        residuals = np.linalg.norm(shifts[j] + shifts[others], axis=1)
        keys.append(eye[j])
        if others.size and residuals.min() <= budget:
            k = others[np.argmin(residuals)]
            keys[-1], unused[k] = eye[j] - eye[k], False
    return np.array(keys, dtype=int).reshape(-1, n).T


def branch_classes(l0: np.ndarray, spectral: SpectralData, branches: np.ndarray) -> np.ndarray:
    """The leaders of the herm classes (``class_keys``) of ``branches``, each
    class's lowest enumeration position, in increasing order."""
    m_max = int(np.abs(branches).max(initial=0))
    labels = branches @ class_keys(l0, spectral, max(m_max, 1))  # all 0 at m_max 0
    return np.sort(np.unique(labels, axis=0, return_index=True)[1])


def search_setup(m_snapshot, logs: Sequence, policy: BranchPolicy) -> tuple:
    """What every single-snapshot search starts from: (snapshot matrix, d,
    branch vectors (the read-only ``branch_grid``), [(k, ||log R_k||,
    (spectral data, log R_k))]); the caller builds the branch targets of
    each R_k.

    ``logs`` is the ``checked_logs`` audit of a stack of samples.  A sample
    that failed it is left out, since one ill-conditioned random basis must
    not abort the search; when every sample failed, ``NumericalFailure``
    is raised, and an empty stack is ``OutOfRange``.
    """
    if not logs:
        raise OutOfRange("a search needs at least one sample")
    m = np.asarray(m_snapshot, dtype=complex)
    audited = [(k, *a) for k, a in enumerate(logs) if not isinstance(a, NumericalFailure)]
    if not audited:
        raise NumericalFailure(
            f"all {len(logs)} samples failed the logarithm audit; last: {logs[-1]}"
        ) from logs[-1]
    for _, _, l0 in audited:
        if l0.shape != m.shape:
            raise OutOfRange(
                f"snapshot and repaired matrix disagree: {m.shape} vs {l0.shape}"
            )
    searches = [(k, frobenius(l0), (spectral, l0)) for k, spectral, l0 in audited]
    return m, side_dim(m.shape[0]), branch_grid(policy, m.shape[0]), searches


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
    """The first k of ``order`` that the mask ``within`` admits (its
    exponential lands inside the radius) and whose generator (less
    ``mus[k]`` * omega_perp, for a noise rate) passes the Lindblad test at
    ``VERIFY_TOL``; None when no k does."""
    if mus is not None:
        omega_perp = max_entangled(side_dim(generators.shape[-1])).omega_perp
    for k in order[within[order]]:
        generator = generators[k] if mus is None else generators[k] - mus[k] * omega_perp
        if is_lindbladian(generator, tol=VERIFY_TOL).ok:
            return int(k)
    return None


def principal_first(l0: np.ndarray) -> bool:
    """Whether a sample's principal target is solved before its branch
    classes: its principal logarithm ``l0`` passes the Lindblad test at
    ``VERIFY_TOL``, as the logarithm of Markovian data does."""
    return is_lindbladian(l0, tol=VERIFY_TOL).ok


def best_fit_lindbladian(
    m_snapshot, logs: Sequence, policy: BranchPolicy = BranchPolicy()
) -> tuple[dict, int]:
    """Search all logarithm branches of every sample for the Lindbladian
    closest to M.

    ``logs`` is the ``checked_logs`` audit of a stack of samples.  Returns
    each audited sample's own fit (None when no branch certifies), keyed by
    stack position in stack order, and the number of (P1) solves the
    solver reported as MaxIters; samples that failed the audit are absent.

    A sample whose principal logarithm passes ``principal_first`` has its
    principal target solved first, with every other such sample's in one
    batch.  When that fit lands below ``TIE_TOL`` and certifies, it is the
    sample's fit: the principal branch is class 0, first in enumeration
    order, so no other branch could outrank it.  Every other sample's class
    leaders go in one more batch, less a principal target already solved,
    and its fit is its first certified class by distance, then leader
    position.
    """
    m, d, branches, searches = search_setup(m_snapshot, logs, policy)
    principal = branches[:1]  # all zeros
    gated = [s for s, (_, _, (_, l0)) in enumerate(searches) if principal_first(l0)]
    fits, solved, maxiters = {}, {}, 0
    if gated:
        generators, distances, maxiters = _solved(m, np.concatenate([
            branch_targets(l0, spectral, principal)
            for s, (_, _, (spectral, l0)) in enumerate(searches) if s in gated
        ]), d)
        for s, gen, dist in zip(gated, generators[:, None], distances[:, None]):
            if dist[0] < TIE_TOL and first_certified(
                np.zeros(1, dtype=int), np.isfinite(dist), gen
            ) is not None:
                fits[s] = FitResult(lindbladian=gen[0], distance=float(dist[0]),
                                    branch=tuple(int(v) for v in principal[0]))
            else:
                solved[s] = gen, dist

    leaders, batch = {}, []
    for s, (_, _, (spectral, l0)) in enumerate(searches):
        if s not in fits:
            leaders[s] = branch_classes(l0, spectral, branches)
            lead = leaders[s][int(s in solved):]  # leader 0 is principal
            batch.append(branch_targets(l0, spectral, branches[lead]))
    generators, distances = np.empty((0, *m.shape), dtype=complex), np.empty(0)
    if sum(map(len, batch)):
        generators, distances, more = _solved(m, np.concatenate(batch), d)
        maxiters += more
    cuts = np.cumsum([len(part) for part in batch])[:-1]
    for (s, lead), gens, dists in zip(
        leaders.items(), np.split(generators, cuts), np.split(distances, cuts)
    ):
        if s in solved:  # its principal class, solved first
            gens, dists = (np.concatenate(pair) for pair in zip(solved[s], (gens, dists)))
        # Leaders follow enumeration order, so a stable sort breaks ties by it.
        c = first_certified(np.argsort(ranked(dists), kind="stable"), np.isfinite(dists), gens)
        fits[s] = None if c is None else FitResult(
            lindbladian=gens[c],
            distance=float(dists[c]),
            branch=tuple(int(v) for v in branches[lead[c]]),
        )
    return {k: fits[s] for s, (k, _, _) in enumerate(searches)}, maxiters


def _solved(m: np.ndarray, targets: np.ndarray, d: int) -> tuple:
    """One P1 batch over the Choi-side ``targets``: (generators, distances
    of their exponentials to M, number of solves that ended MaxIters)."""
    reports = solver.closest_lindbladian_batch(targets, d)
    generators = gamma_involution(np.stack([report.x_opt for report in reports]))
    distances = exp_distances(m[None], np.ones(1), generators)[:, 0]
    return generators, distances, sum(report.status == solver.MAX_ITERS for report in reports)


def unitary_frame(m_snapshot) -> tuple[Optional[FitResult], int]:
    """The unitary-frame candidate of a snapshot M: the Hamiltonian of its
    nearest unitary, plus the closest generator of what that unitary leaves.

    K, the top eigenvector of herm Gamma(M) reshaped row-major d x d, is
    M's leading Kraus operator, and U = W V^H from ``svd(K) = W S V^H`` is
    the unitary nearest K (its polar factor: Fan and Hoffman, Proc. AMS 6
    (1955); Higham, *Functions of Matrices*, ch. 8).  H = i log U, taken on
    U's eigenvalues, gives the exact Lindbladian L_H with exp(L_H) =
    U (x) U*.  The principal log of exp(-L_H) M, audited by
    ``checked_logs`` (which nudges it when degenerate, as it is, the
    identity, on an exact unitary), is projected by one P1 solve to X, and
    the candidate is G = L_H + Gamma(X), Lindbladian because +-L_H lies in
    the cone's lineality space.  It needs no repair and no branch search.

    Returns G's fit, measured against M and certified by
    ``first_certified`` (None when the audit fails or G is not
    certified), and the number of P1 solves that ended MaxIters.
    """
    m = np.asarray(m_snapshot, dtype=complex)
    d = side_dim(m.shape[0])
    kraus = np.linalg.eigh(herm(gamma_involution(m)))[1][:, -1].reshape(d, d)
    w, _, vh = np.linalg.svd(kraus)
    phases, vectors = np.linalg.eig(w @ vh)
    l_h = lindblad_generator(herm((vectors * (1j * np.log(phases))) @ np.linalg.inv(vectors)))
    [audit] = checked_logs((expm(-l_h) @ m)[None])
    if isinstance(audit, NumericalFailure):
        return None, 0
    [report] = solver.closest_lindbladian_batch(gamma_involution(audit[1])[None], d)
    generator = l_h + gamma_involution(report.x_opt)
    distance = exp_distances(m[None], np.ones(1), generator[None])[:, 0]
    maxiters = int(report.status == solver.MAX_ITERS)
    if first_certified(np.zeros(1, dtype=int), np.isfinite(distance), generator[None]) is None:
        return None, maxiters
    return FitResult(lindbladian=generator, distance=float(distance[0]), branch=None), maxiters
