"""Joint time-independent generator fit across a sequence of snapshots.

A sequence of tomographic snapshots (M_c, t_c) is compatible with
Markovian dynamics only if one fixed generator X reproduces every
snapshot at once: exp(t_c X) must land within epsilon of each M_c.  The
joint program minimizes the summed log-space misfit

    sum_c || t_c X - (L_mc^c)^Gamma ||_F

over hermitian trace-compatible cone-feasible X, with each term also
capped by a trust radius delta, and L_mc^c ranging over logarithm
branches of M_c.  The accepted candidate is the one with the smallest
summed snapshot distance, provided every individual snapshot distance
beats epsilon and the sum beats q*epsilon (a candidate must average below
epsilon per snapshot to count at all); ties go to the earlier (delta,
assignment) grid position.

The search runs as three batched steps.  The per-snapshot branch targets
are stacked per assignment, and ``solver.joint_infeasibility`` screens
the whole (delta, assignment) grid at once.  The pairs that survive go
to one lockstep ``solver.solve_joint_fit_batch`` call.  One ``expm`` call
then gives every survivor's snapshot distances, and the reduction walks
the survivors by (summed distance, grid position) to the first one that
passes the Lindblad audit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import fitting, solver
from .channels import is_lindbladian
from .errors import DimensionMismatch, OutOfRange
from .fitting import (
    BranchPolicy,
    FitResult,
    enumerate_branches,
    branch_targets,
    checked_log,
    snapshot_matrix,
)
from .linalg import expm, frobenius, gamma_involution, side_dim
from .nonmarkov import DeltaSweep

__all__ = [
    "SnapshotSeries",
    "best_fit_multi",
]


@dataclass(frozen=True)
class SnapshotSeries:
    """Snapshots M_c at strictly increasing positive times t_c.

    A meaningful series has at least two snapshots; a single-snapshot
    series is still accepted and makes the joint driver collapse to the
    plain single-snapshot program (used as a consistency check).
    """

    snapshots: Sequence
    times: Sequence[float]

    @property
    def count(self) -> int:
        return len(self.snapshots)

    def matrix(self, c: int) -> np.ndarray:
        return snapshot_matrix(self.snapshots[c])

    def validate(self) -> None:
        if self.count < 1:
            raise OutOfRange("a series needs at least one snapshot")
        if len(self.times) != self.count:
            raise DimensionMismatch(
                f"{self.count} snapshots but {len(self.times)} times"
            )
        shape = self.matrix(0).shape
        side_dim(shape[0])
        for c in range(self.count):
            if self.matrix(c).shape != shape:
                raise DimensionMismatch(
                    f"snapshot {c} has shape {self.matrix(c).shape}, "
                    f"expected {shape}"
                )
        t = [float(v) for v in self.times]
        if t[0] <= 0 or any(b <= a for a, b in zip(t, t[1:])):
            raise OutOfRange(
                f"times must be positive and strictly increasing, got {t}"
            )


def _joint_assignments(
    policy: BranchPolicy, count: int, dim: int, restrict: bool
):
    """Branch vectors per snapshot, enumerated jointly.

    The default keeps the all-zero assignment plus every assignment where
    exactly one snapshot moves to a branch with entries in {-1, 0, 1}; the
    full product grid over per-snapshot enumerations is exponentially
    larger and only worth it when explicitly requested.
    """
    zero = (0,) * dim
    if restrict:
        yield (zero,) * count
        inner = BranchPolicy(
            m_max=min(policy.m_max, 1), max_branches=policy.max_branches
        )
        for c in range(count):
            for m in enumerate_branches(inner, dim):
                if m == zero:
                    continue
                yield tuple(m if cc == c else zero for cc in range(count))
    else:
        per = [list(enumerate_branches(policy, dim)) for _ in range(count)]
        yield from itertools.product(*per)


def best_fit_multi(
    series: SnapshotSeries,
    epsilon: float,
    policy: Optional[BranchPolicy] = None,
    sweep: Optional[DeltaSweep] = None,
    settings: Optional[solver.SolverSettings] = None,
    *,
    delta_step: float = 0.01,
    restrict_branches: bool = True,
) -> Optional[FitResult]:
    """One generator for the whole series, or None when none fits.

    Returns the joint solution with the smallest summed snapshot
    distance among those where every snapshot individually lands within
    epsilon.  The trust radius follows the first snapshot's logarithm
    (the radius-from-epsilon relation does not single out a snapshot;
    reports flag this choice), and the returned distance is the sum over
    the series.  The winning branch assignment is returned flattened,
    snapshot by snapshot, so a single-snapshot series reports the plain
    branch vector.
    """
    if epsilon <= 0:
        raise OutOfRange(f"epsilon must be positive, got {epsilon}")
    series.validate()
    if policy is None:
        policy = BranchPolicy()
    q = series.count
    times = np.asarray(series.times, dtype=float)
    mats = [series.matrix(c) for c in range(q)]
    n = mats[0].shape[0]
    d = side_dim(n)

    logs = [checked_log(m) for m in mats]
    if sweep is None:
        sweep = DeltaSweep.from_epsilon(epsilon, frobenius(logs[0][1]), delta_step)
    deltas = sweep.grid()

    assignments = np.array(
        list(_joint_assignments(policy, q, n, restrict_branches)), dtype=int
    )
    # One batched target call per snapshot over its distinct branches; a
    # restricted assignment reuses the zero branch for all snapshots but one.
    targets = np.empty(assignments.shape[:2] + (n, n), dtype=complex)
    for c, (spectral, l0) in enumerate(logs):
        branches, inverse = np.unique(assignments[:, c], axis=0, return_inverse=True)
        targets[:, c] = branch_targets(l0, spectral, branches)[inverse.reshape(-1)]

    # Grid position δ-major, then assignment: the enumeration order that
    # breaks ties between equal summed distances.
    excess = solver.joint_infeasibility(targets, times, deltas[:, None])
    delta_idx, assign_idx = np.nonzero(excess == 0)
    if not assign_idx.size:
        return None
    reports = solver.solve_joint_fit_batch(
        targets[assign_idx], times, d, deltas[delta_idx], settings
    )
    generators = gamma_involution(np.stack([rep.x_opt for rep in reports]))
    exps = expm(times[None, :, None, None] * generators[:, None])
    dists = np.linalg.norm(np.array(mats)[None] - exps, axis=(-2, -1))
    distance = dists.sum(axis=1)
    fits = (dists.max(axis=1) < epsilon) & (distance < q * epsilon)
    for k in np.flatnonzero(fits)[np.argsort(distance[fits], kind="stable")]:
        if is_lindbladian(generators[k], tol=fitting.VERIFY_TOL).ok:
            return FitResult(
                lindbladian=generators[k],
                distance=float(distance[k]),
                branch=tuple(int(v) for v in assignments[assign_idx[k]].ravel()),
            )
    return None
