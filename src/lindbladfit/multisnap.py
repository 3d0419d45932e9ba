"""Joint time-independent generator fit across a sequence of snapshots.

A sequence of tomographic snapshots (M_c, t_c) is compatible with
Markovian dynamics only if one fixed generator X reproduces every
snapshot at once: exp(t_c X) must land within epsilon of each M_c.  The
joint program minimizes the summed log-space misfit

    sum_c || t_c X - (L_mc^c)^Gamma ||_F

over hermitian trace-compatible cone-feasible X, with each term also
capped by one trust radius delta, and L_mc^c ranging over logarithm
branches of M_c: the branch policy's enumeration (entries within
±m_max, as for a single snapshot) for one snapshot at a time, with every
other snapshot on its principal branch.  delta is the last point of the
single-snapshot delta grid of snapshot ``DELTA_GRID_SNAPSHOT``.  The
accepted candidate is the one with the smallest summed snapshot
distance, provided every individual snapshot distance beats epsilon;
ties (``fitting.ranked``) go to the earlier assignment.

The search runs in batched steps.  The per-snapshot branch targets are
stacked per assignment, and ``solver.joint_infeasible`` screens every
assignment at delta.  The trust radius does not enter the joint solve:
each live assignment is solved once, in one lockstep
``solver.solve_joint_fit_batch`` call (reweighted (P1) projections), and
keeps its solution only when its snapshot misfits ||t_c X - T_c||_F all
fit inside delta, where the uncapped optimum is also the capped one.
Both the screen and this test only pass more often as delta grows, so
no smaller radius of the grid could keep an assignment that delta drops.
One ``expm`` call then gives the kept solutions' snapshot distances, and
the certificate of ``fitting`` walks them by ranked summed distance.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import solver
# expm and is_lindbladian are not called here; the benchmark tracer
# (perfbench/spans.py) still looks them up on this module.
from .channels import is_lindbladian  # noqa: F401
from .errors import DimensionMismatch, OutOfRange
from .fitting import (
    BranchPolicy,
    FitResult,
    enumerate_branches,
    branch_targets,
    checked_log,
    exp_distances,
    first_certified,
    ranked,
)
from .linalg import expm, frobenius, gamma_involution, side_dim  # noqa: F401
from .nonmarkov import DeltaSweep

__all__ = ["DELTA_GRID_SNAPSHOT", "best_fit_multi"]

#: The snapshot whose logarithm's norm sets the delta grid of the sweep.
DELTA_GRID_SNAPSHOT = 0


def _joint_assignments(policy: BranchPolicy, count: int, dim: int):
    """Branch vectors per snapshot, enumerated jointly: the all-zero
    assignment plus every assignment where exactly one snapshot moves to a
    nonzero branch of ``enumerate_branches(policy, dim)``.  (The full
    product grid over the per-snapshot enumerations is exponentially
    larger.)
    """
    zero = (0,) * dim
    yield (zero,) * count
    for c in range(count):
        for m in enumerate_branches(policy, dim):
            if m == zero:
                continue
            yield tuple(m if cc == c else zero for cc in range(count))


def best_fit_multi(
    snapshots: Sequence,
    times: Sequence[float],
    epsilon: float,
    policy: BranchPolicy = BranchPolicy(),
    *,
    delta_step: float = 0.01,
) -> tuple[Optional[FitResult], int]:
    """One generator for the whole series, or None when none fits.

    Returns the joint solution with the smallest summed snapshot
    distance among those where every snapshot individually lands within
    epsilon and every snapshot misfit in log space within the trust
    radius.  The radius is the last point of the delta grid that
    ``delta_step`` lays from the logarithm of snapshot
    ``DELTA_GRID_SNAPSHOT`` (the radius-from-epsilon relation does not
    single out a snapshot; the ``multifit`` report names it), and the
    returned distance is the sum over the series.  The winning branch
    assignment is returned flattened, snapshot by snapshot, so a
    single-snapshot series reports the plain branch vector.

    ``snapshots`` are the matrices M_c at the finite, positive, strictly
    increasing ``times`` t_c.  A meaningful series has two or more; a
    single snapshot collapses the joint program to the plain
    single-snapshot one (used as a consistency check).

    Returns the fit (None when no candidate fits) and the number of joint
    solves the solver reported as MaxIters.
    """
    if epsilon <= 0:
        raise OutOfRange(f"epsilon must be positive, got {epsilon}")
    mats = [np.asarray(m, dtype=complex) for m in snapshots]
    q = len(mats)
    if q < 1:
        raise OutOfRange("a series needs at least one snapshot")
    if len(times) != q:
        raise DimensionMismatch(f"{q} snapshots but {len(times)} times")
    n = mats[0].shape[0]
    d = side_dim(n)
    for c, m in enumerate(mats):
        if m.shape != mats[0].shape:
            raise DimensionMismatch(
                f"snapshot {c} has shape {m.shape}, expected {mats[0].shape}"
            )
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)) or times[0] <= 0 or np.any(times[1:] <= times[:-1]):
        raise OutOfRange(
            f"times must be finite, positive and strictly increasing, got {times.tolist()}"
        )

    logs = [checked_log(m) for m in mats]
    delta = DeltaSweep.from_epsilon(
        epsilon, frobenius(logs[DELTA_GRID_SNAPSHOT][1]), delta_step
    ).grid()[-1]

    assignments = np.array(list(_joint_assignments(policy, q, n)), dtype=int)
    # One batched target call per snapshot over its distinct branches; an
    # assignment reuses the zero branch for all snapshots but one.
    targets = np.empty(assignments.shape[:2] + (n, n), dtype=complex)
    for c, (spectral, l0) in enumerate(logs):
        branches, inverse = np.unique(assignments[:, c], axis=0, return_inverse=True)
        targets[:, c] = branch_targets(l0, spectral, branches)[inverse.reshape(-1)]

    live = np.flatnonzero(~solver.joint_infeasible(targets, times, delta))
    if not live.size:
        return None, 0

    reports = solver.solve_joint_fit_batch(targets[live], times, d)
    maxiters = sum(rep.status == solver.MAX_ITERS for rep in reports)
    x = np.stack([rep.x_opt for rep in reports])
    misfit = np.linalg.norm(
        times[:, None, None] * x[:, None] - targets[live], axis=(-2, -1)
    ).max(axis=1)
    kept = np.flatnonzero(misfit <= delta)

    generators = gamma_involution(x[kept])
    dists = exp_distances(np.array(mats), times, generators)
    distance = dists.sum(axis=1)
    order = np.argsort(ranked(distance), kind="stable")
    k = first_certified(order, dists.max(axis=1) < epsilon, generators)
    if k is None:
        return None, maxiters
    return FitResult(
        lindbladian=generators[k],
        distance=float(distance[k]),
        branch=tuple(int(v) for v in assignments[live[kept[k]]].ravel()),
    ), maxiters
